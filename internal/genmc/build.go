package genmc

import (
	"fmt"
	"strings"
)

// builder accumulates one program: the planned declarations, the loop
// nests, and the trailing stores that surface accumulator state into
// the out array. plan, buildLoops and finish are the three pipeline
// stages; render and eval are the two backends.
type builder struct {
	knobs Knobs
	r     *rng

	data []*array // a0..aN-1, seeded with random contents
	nxt  *array   // chain successor array (Chain archetype only)
	out  *array   // zero-initialized results array

	loopVars []string     // i0[, i1], shared by every nest
	accs     []scalarDecl // accumulators
	ptrs     []scalarDecl // chain pointers (Chain archetype only)

	nests []stmt // top-level loop nests, in program order
	final []stmt // trailing out-array stores
}

// scalarDecl is one `int name = init;` local.
type scalarDecl struct {
	name string
	init int32
}

// plan draws the declaration set: data arrays, the archetype's helper
// arrays, the out array, and the scalar pool.
func (b *builder) plan() {
	k, r := b.knobs, b.r
	for i := 0; i < k.Arrays; i++ {
		vals := make([]int32, k.Size)
		for j := range vals {
			vals[j] = r.i32()
		}
		b.data = append(b.data, &array{name: fmt.Sprintf("a%d", i), init: vals})
	}
	if k.Archetype == Chain {
		// A scrambled successor permutation: chasing it visits every
		// element in an order no affine analysis predicts.
		perm := make([]int32, k.Size)
		for i := range perm {
			perm[i] = int32(i)
		}
		for i := len(perm) - 1; i > 0; i-- {
			j := int(r.n(uint64(i + 1)))
			perm[i], perm[j] = perm[j], perm[i]
		}
		b.nxt = &array{name: "nxt", init: perm}
	}
	b.out = &array{name: "out", init: make([]int32, 8), out: true}

	for d := 0; d < k.Depth; d++ {
		b.loopVars = append(b.loopVars, fmt.Sprintf("i%d", d))
	}
	numAccs := 1 + int(r.n(3))
	for i := 0; i < numAccs; i++ {
		b.accs = append(b.accs, scalarDecl{fmt.Sprintf("acc%d", i), r.i32()})
	}
	if k.Archetype == Chain {
		numPtrs := 1 + int(r.n(2))
		for i := 0; i < numPtrs; i++ {
			b.ptrs = append(b.ptrs, scalarDecl{fmt.Sprintf("p%d", i), int32(r.n(uint64(k.Size)))})
		}
	}
}

// affineIdx builds a masked affine index expression over the loop
// variables: (off + c0*i0 [+ c1*i1]) & (size-1). Always in bounds.
func (b *builder) affineIdx(arr *array) expr {
	e := expr(intLit(int32(b.r.n(uint64(arr.size())))))
	for _, v := range b.loopVars {
		c := intLit(1 + int32(b.r.n(5)))
		e = bin{op: '+', l: e, r: bin{op: '*', l: scalarRef(v), r: c}}
	}
	return bin{op: '&', l: e, r: intLit(arr.mask())}
}

// ptrIdx builds a masked index through a chain pointer, optionally
// displaced: (p + off) & (size-1).
func (b *builder) ptrIdx(arr *array, p string) expr {
	e := expr(scalarRef(p))
	if off := int32(b.r.n(uint64(arr.size()))); off != 0 {
		e = bin{op: '+', l: e, r: intLit(off)}
	}
	return bin{op: '&', l: e, r: intLit(arr.mask())}
}

// accOps are the compound-assignment operators accumulators update
// through; valOps combine two loads into a value.
var accOps = []byte{'+', '^', '|', '&'}
var valOps = []byte{'*', '+', '-', '^'}

// bodyStmt draws one innermost-body statement in the archetype's
// access shape.
func (b *builder) bodyStmt() stmt {
	r := b.r
	acc := pick(r, b.accs).name
	switch b.knobs.Archetype {
	case Pair:
		// Two loads from distinct arrays in one statement — the
		// schedulable pair CB partitioning exists to split across banks.
		ai := int(r.n(uint64(len(b.data))))
		bi := (ai + 1 + int(r.n(uint64(len(b.data)-1)))) % len(b.data)
		la := load{arr: b.data[ai], idx: b.affineIdx(b.data[ai])}
		lb := load{arr: b.data[bi], idx: b.affineIdx(b.data[bi])}
		val := bin{op: pick(r, valOps), l: la, r: lb}
		if len(b.data) >= 3 && r.n(3) == 0 {
			// Store into a third array, keeping the loaded pair distinct.
			ci := ai
			for ci == ai || ci == bi {
				ci = int(r.n(uint64(len(b.data))))
			}
			dst := b.data[ci]
			return assignElem{arr: dst, idx: b.affineIdx(dst), op: 0,
				rhs: bin{op: '^', l: val, r: scalarRef(acc)}}
		}
		return assignScalar{name: acc, op: pick(r, accOps), rhs: val}
	case Window:
		// Two offsets of one array in one statement — the same-array
		// conflict only duplication can parallelize.
		x := pick(r, b.data)
		l1 := load{arr: x, idx: b.affineIdx(x)}
		l2 := load{arr: x, idx: b.affineIdx(x)}
		val := bin{op: pick(r, valOps), l: l1, r: l2}
		if r.n(4) == 0 {
			// Occasional write-back into the window array: duplicated
			// arrays then pay coherence stores, the cost side of the
			// paper's duplication trade-off.
			return assignElem{arr: x, idx: b.affineIdx(x), op: 0,
				rhs: bin{op: '+', l: l1, r: scalarRef(acc)}}
		}
		return assignScalar{name: acc, op: pick(r, accOps), rhs: val}
	default: // Chain
		p := pick(r, b.ptrs).name
		d := pick(r, b.data)
		switch r.n(3) {
		case 0:
			return assignScalar{name: acc, op: '^',
				rhs: load{arr: d, idx: b.ptrIdx(d, p)}}
		case 1:
			e := pick(r, b.data)
			return assignScalar{name: acc, op: '+',
				rhs: bin{op: pick(r, valOps),
					l: load{arr: d, idx: b.ptrIdx(d, p)},
					r: load{arr: e, idx: b.ptrIdx(e, p)}}}
		default:
			return assignElem{arr: d, idx: b.ptrIdx(d, p), op: 0,
				rhs: bin{op: '^', l: scalarRef(acc), r: scalarRef(p)}}
		}
	}
}

// buildLoops draws the loop nests. Trip counts are bounded so a whole
// program executes a few thousand innermost iterations at most — big
// enough to exercise the schedulers, small enough that a thousand
// programs run through both engines in seconds.
func (b *builder) buildLoops() {
	k, r := b.knobs, b.r
	for n := 0; n < k.Loops; n++ {
		var body []stmt
		if k.Archetype == Chain {
			// Advance every chain pointer once per innermost iteration:
			// the loads that follow are data-dependent on memory.
			for _, p := range b.ptrs {
				body = append(body, assignScalar{name: p.name, op: 0,
					rhs: load{arr: b.nxt, idx: b.ptrIdx(b.nxt, p.name)}})
			}
		}
		for s := 0; s < k.Stmts; s++ {
			body = append(body, b.bodyStmt())
		}
		if k.Depth == 2 {
			inner := loop{v: b.loopVars[1], n: 8 + int(r.n(16)), body: body}
			b.nests = append(b.nests, loop{v: b.loopVars[0], n: 6 + int(r.n(12)), body: []stmt{inner}})
		} else {
			b.nests = append(b.nests, loop{v: b.loopVars[0], n: 24 + int(r.n(64)), body: body})
		}
	}
}

// finish surfaces every accumulator and chain pointer into the out
// array, so scalar state that lived in registers all along becomes
// part of the checked memory image.
func (b *builder) finish() {
	slot := 0
	for _, a := range b.accs {
		b.final = append(b.final, assignElem{arr: b.out, idx: intLit(int32(slot)), op: 0, rhs: scalarRef(a.name)})
		slot++
	}
	for _, p := range b.ptrs {
		b.final = append(b.final, assignElem{arr: b.out, idx: intLit(int32(slot)), op: 0, rhs: scalarRef(p.name)})
		slot++
	}
}

// arrays lists every global array in declaration order.
func (b *builder) arrays() []*array {
	all := append([]*array(nil), b.data...)
	if b.nxt != nil {
		all = append(all, b.nxt)
	}
	return append(all, b.out)
}

// render is the codegen backend: the IR as a MiniC translation unit.
func (b *builder) render() string {
	var sb strings.Builder
	for _, a := range b.arrays() {
		if a.out {
			fmt.Fprintf(&sb, "int %s[%d];\n", a.name, a.size())
			continue
		}
		fmt.Fprintf(&sb, "int %s[%d] = {", a.name, a.size())
		for i, v := range a.init {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "%d", v)
		}
		sb.WriteString("};\n")
	}
	sb.WriteString("\nvoid main() {\n")
	for _, v := range b.loopVars {
		fmt.Fprintf(&sb, "\tint %s;\n", v)
	}
	for _, s := range append(append([]scalarDecl(nil), b.accs...), b.ptrs...) {
		if s.init < 0 {
			fmt.Fprintf(&sb, "\tint %s = (%d);\n", s.name, s.init)
		} else {
			fmt.Fprintf(&sb, "\tint %s = %d;\n", s.name, s.init)
		}
	}
	for _, n := range b.nests {
		n.emitStmt(&sb, 1)
	}
	for _, s := range b.final {
		s.emitStmt(&sb, 1)
	}
	sb.WriteString("}\n")
	return sb.String()
}

// eval is the oracle backend: it executes the same IR in Go and
// returns the expected final contents of every global array.
func (b *builder) eval() map[string][]int32 {
	st := &state{
		scalars: make(map[string]int32),
		arrays:  make(map[string][]int32),
	}
	for _, v := range b.loopVars {
		st.scalars[v] = 0
	}
	for _, s := range append(append([]scalarDecl(nil), b.accs...), b.ptrs...) {
		st.scalars[s.name] = s.init
	}
	for _, a := range b.arrays() {
		st.arrays[a.name] = append([]int32(nil), a.init...)
	}
	for _, n := range b.nests {
		n.exec(st)
	}
	for _, s := range b.final {
		s.exec(st)
	}
	out := make(map[string][]int32, len(st.arrays))
	for name, vals := range st.arrays {
		out[name] = vals
	}
	return out
}
