// Package encode serialises a scheduled VLIW program into a compact
// binary ROM image and loads such images back into executable form.
// Embedded DSPs ship their programs in on-chip instruction memory
// (§1.1 of the paper discusses sizing systems so code and coefficients
// fit on chip); the image format is the deployment artefact of this
// toolchain: a self-contained object file holding the symbol table
// (with bank assignments, addresses and initial data), the function
// and block structure, and the tightly encoded long instructions.
//
// Loading an image reconstructs a compact.Program that the simulator
// executes exactly like the compiler's in-memory output — the
// round-trip is exercised end-to-end by the tests.
package encode

import (
	"encoding/binary"
	"fmt"
	"math"

	"dualbank/internal/compact"
	"dualbank/internal/ir"
	"dualbank/internal/machine"
)

// Magic identifies image files.
var Magic = [4]byte{'D', 'S', 'P', 'B'}

// Version is the image format version. Version 2 carries the bank
// geometry in the header and a slot for every unit of the widest
// machine, so an N-bank program keeps its extra memory units; Decode
// rejects every other version.
const Version = 2

// op field presence flags.
const (
	fDst uint8 = 1 << iota
	fA0
	fA1
	fIdx
	fImm
	fFImm
	fSym
	fAtomic
)

type writer struct {
	buf []byte
}

func (w *writer) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *writer) uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}
func (w *writer) varint(v int64) {
	w.buf = binary.AppendVarint(w.buf, v)
}
func (w *writer) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

type reader struct {
	buf []byte
	off int
}

func (r *reader) remain() int { return len(r.buf) - r.off }

func (r *reader) u8() (uint8, error) {
	if r.remain() < 1 {
		return 0, fmt.Errorf("encode: truncated image (u8 at %d)", r.off)
	}
	v := r.buf[r.off]
	r.off++
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if r.remain() < 4 {
		return 0, fmt.Errorf("encode: truncated image (u32 at %d)", r.off)
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if r.remain() < 8 {
		return 0, fmt.Errorf("encode: truncated image (u64 at %d)", r.off)
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v, nil
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("encode: bad uvarint at %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *reader) varint() (int64, error) {
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("encode: bad varint at %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *reader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if uint64(r.remain()) < n {
		return "", fmt.Errorf("encode: truncated string at %d", r.off)
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

// Encode serialises a scheduled program into a fresh image.
func Encode(p *compact.Program) ([]byte, error) {
	if err := p.Spec.Validate(); err != nil {
		return nil, fmt.Errorf("encode: %w", err)
	}
	w := &writer{buf: append([]byte(nil), Magic[:]...)}
	w.u8(Version)
	w.u8(uint8(p.Ports))
	w.u8(uint8(p.Spec.Banks))
	w.u8(uint8(p.Spec.PortsPerBank))
	w.uvarint(uint64(len(p.Spec.UnitBinding)))
	for _, b := range p.Spec.UnitBinding {
		w.u8(uint8(b))
	}
	w.str(p.Src.Name)

	// Symbol table. Index spans globals then each function's locals, in
	// program order.
	syms := p.Src.Symbols()
	index := make(map[*ir.Symbol]int, len(syms))
	for i, s := range syms {
		index[s] = i
	}
	w.uvarint(uint64(len(p.Src.Globals)))
	w.uvarint(uint64(len(syms)))
	for _, s := range syms {
		w.str(s.Name)
		w.u8(uint8(s.Kind))
		w.u8(uint8(s.Elem))
		w.uvarint(uint64(s.Size))
		w.uvarint(uint64(len(s.Dims)))
		for _, d := range s.Dims {
			w.uvarint(uint64(d))
		}
		flags := uint8(0)
		if s.Duplicated {
			flags |= 1
		}
		if s.ReadOnly {
			flags |= 2
		}
		if s.Save {
			flags |= 4
		}
		w.u8(flags)
		w.u8(uint8(s.Bank))
		w.uvarint(uint64(s.Addr))
		w.uvarint(uint64(len(s.Init)))
		for _, word := range s.Init {
			w.u32(word)
		}
	}

	// Function table.
	funcIndex := make(map[string]int, len(p.Src.Funcs))
	w.uvarint(uint64(len(p.Src.Funcs)))
	for i, f := range p.Src.Funcs {
		funcIndex[f.Name] = i
	}
	for _, f := range p.Src.Funcs {
		sf := p.Funcs[f.Name]
		if sf == nil {
			return nil, fmt.Errorf("encode: function %s not scheduled", f.Name)
		}
		w.str(f.Name)
		w.u8(uint8(f.RetType))
		w.uvarint(uint64(len(f.Params)))
		for _, prm := range f.Params {
			w.uvarint(uint64(index[prm]))
		}
		w.uvarint(uint64(len(f.Locals)))
		for _, l := range f.Locals {
			w.uvarint(uint64(index[l]))
		}
		w.uvarint(uint64(len(f.Blocks)))
		for _, b := range f.Blocks {
			sb := sf.Blocks[b.ID]
			w.uvarint(uint64(b.LoopDepth))
			w.uvarint(uint64(len(b.Succs)))
			for _, s := range b.Succs {
				w.uvarint(uint64(s.ID))
			}
			w.uvarint(uint64(len(sb.Instrs)))
			for _, in := range sb.Instrs {
				if err := encodeInstr(w, in, index, funcIndex); err != nil {
					return nil, err
				}
			}
		}
	}
	return w.buf, nil
}

func encodeInstr(w *writer, in *compact.Instr, symIndex map[*ir.Symbol]int, funcIndex map[string]int) error {
	mask := uint16(0)
	for u, op := range in.Slots {
		if op != nil {
			mask |= 1 << uint(u)
		}
	}
	w.u8(uint8(mask))
	w.u8(uint8(mask >> 8))
	for _, op := range in.Slots {
		if op == nil {
			continue
		}
		w.u8(uint8(op.Kind))
		var flags uint8
		if op.Dst != ir.NoReg {
			flags |= fDst
		}
		if op.Args[0] != ir.NoReg {
			flags |= fA0
		}
		if op.Args[1] != ir.NoReg {
			flags |= fA1
		}
		if op.Idx != ir.NoReg {
			flags |= fIdx
		}
		if op.Kind == ir.OpConst {
			flags |= fImm
		}
		if op.Kind == ir.OpFConst {
			flags |= fFImm
		}
		if op.Sym != nil {
			flags |= fSym
		}
		if op.Atomic {
			flags |= fAtomic
		}
		w.u8(flags)
		w.u8(uint8(op.Type))
		w.u8(uint8(op.Bank))
		if flags&fDst != 0 {
			w.u8(uint8(op.Dst))
		}
		if flags&fA0 != 0 {
			w.u8(uint8(op.Args[0]))
		}
		if flags&fA1 != 0 {
			w.u8(uint8(op.Args[1]))
		}
		if flags&fIdx != 0 {
			w.u8(uint8(op.Idx))
		}
		if flags&fImm != 0 {
			w.varint(op.Imm)
		}
		if flags&fFImm != 0 {
			w.u64(math.Float64bits(op.FImm))
		}
		if flags&fSym != 0 {
			idx, ok := symIndex[op.Sym]
			if !ok {
				return fmt.Errorf("encode: op references unknown symbol %s", op.Sym)
			}
			w.uvarint(uint64(idx))
		}
		if op.Kind == ir.OpCall {
			fi, ok := funcIndex[op.Callee]
			if !ok {
				return fmt.Errorf("encode: call to unknown function %s", op.Callee)
			}
			w.uvarint(uint64(fi))
		}
	}
	return nil
}

// Decode loads an image back into an executable scheduled program.
func Decode(data []byte) (*compact.Program, error) {
	r := &reader{buf: data}
	if len(data) < 6 || data[0] != Magic[0] || data[1] != Magic[1] ||
		data[2] != Magic[2] || data[3] != Magic[3] {
		return nil, fmt.Errorf("encode: not a DSP image")
	}
	r.off = 4
	ver, err := r.u8()
	if err != nil {
		return nil, err
	}
	if ver != Version {
		return nil, fmt.Errorf("encode: unsupported image version %d", ver)
	}
	ports, err := r.u8()
	if err != nil {
		return nil, err
	}
	spec, err := decodeSpec(r)
	if err != nil {
		return nil, err
	}
	name, err := r.str()
	if err != nil {
		return nil, err
	}

	prog := &ir.Program{Name: name}
	nGlobals, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	nSyms, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	syms := make([]*ir.Symbol, nSyms)
	for i := range syms {
		s := &ir.Symbol{}
		if s.Name, err = r.str(); err != nil {
			return nil, err
		}
		k, err := r.u8()
		if err != nil {
			return nil, err
		}
		s.Kind = ir.SymKind(k)
		e, err := r.u8()
		if err != nil {
			return nil, err
		}
		s.Elem = ir.Type(e)
		sz, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		s.Size = int(sz)
		nd, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		for d := uint64(0); d < nd; d++ {
			dim, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			s.Dims = append(s.Dims, int(dim))
		}
		flags, err := r.u8()
		if err != nil {
			return nil, err
		}
		s.Duplicated = flags&1 != 0
		s.ReadOnly = flags&2 != 0
		s.Save = flags&4 != 0
		b, err := r.u8()
		if err != nil {
			return nil, err
		}
		s.Bank = machine.Bank(b)
		addr, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		s.Addr = int(addr)
		ni, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if ni > uint64(s.Size) {
			return nil, fmt.Errorf("encode: symbol %s has %d init words for size %d", s.Name, ni, s.Size)
		}
		for wi := uint64(0); wi < ni; wi++ {
			word, err := r.u32()
			if err != nil {
				return nil, err
			}
			s.Init = append(s.Init, word)
		}
		syms[i] = s
	}
	if nGlobals > nSyms {
		return nil, fmt.Errorf("encode: %d globals exceed %d symbols", nGlobals, nSyms)
	}
	prog.Globals = append(prog.Globals, syms[:nGlobals]...)

	nFuncs, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	out := &compact.Program{Src: prog, Funcs: make(map[string]*compact.Func), Ports: machine.PortModel(ports), Spec: spec}
	units := spec.NumUnits()
	funcNames := make([]string, 0, nFuncs)
	// local[si] marks a symbol some function lists as a local (a param
	// is a local too).
	local := make([]bool, nSyms)

	type pendingCall struct {
		op *ir.Op
		fi int
	}
	var calls []pendingCall

	for fi := uint64(0); fi < nFuncs; fi++ {
		fname, err := r.str()
		if err != nil {
			return nil, err
		}
		funcNames = append(funcNames, fname)
		rt, err := r.u8()
		if err != nil {
			return nil, err
		}
		f := ir.NewFunc(fname, ir.Type(rt))
		f.SetPhysRegTable()
		np, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		for pi := uint64(0); pi < np; pi++ {
			si, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			if si >= nSyms {
				return nil, fmt.Errorf("encode: param symbol index %d out of range", si)
			}
			f.Params = append(f.Params, syms[si])
		}
		nl, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		for li := uint64(0); li < nl; li++ {
			si, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			if si >= nSyms {
				return nil, fmt.Errorf("encode: local symbol index %d out of range", si)
			}
			local[si] = true
			f.Locals = append(f.Locals, syms[si])
		}

		nb, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		blocks := make([]*ir.Block, nb)
		for bi := range blocks {
			blocks[bi] = f.NewBlock()
		}
		sf := &compact.Func{Src: f}
		type succFix struct {
			b   *ir.Block
			ids []int
		}
		var fixes []succFix
		for bi := uint64(0); bi < nb; bi++ {
			b := blocks[bi]
			depth, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			b.LoopDepth = int(depth)
			ns, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			fix := succFix{b: b}
			for si := uint64(0); si < ns; si++ {
				id, err := r.uvarint()
				if err != nil {
					return nil, err
				}
				if id >= nb {
					return nil, fmt.Errorf("encode: successor %d out of range", id)
				}
				fix.ids = append(fix.ids, int(id))
			}
			fixes = append(fixes, fix)

			ni, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			sb := &compact.Block{Src: b}
			for ii := uint64(0); ii < ni; ii++ {
				in, ops, callRefs, err := decodeInstr(r, syms, units)
				if err != nil {
					return nil, fmt.Errorf("encode: %s block %d: %w", fname, bi, err)
				}
				b.Ops = append(b.Ops, ops...)
				for _, cr := range callRefs {
					calls = append(calls, pendingCall{op: cr.op, fi: cr.fi})
				}
				sb.Instrs = append(sb.Instrs, in)
			}
			// Within an instruction, ops decode in unit order (PCU
			// first), so the block terminator may not be the final op;
			// restore the terminator-last invariant. Decoded blocks are
			// executed via their instruction list — the op list exists
			// for verification and inspection.
			for i, op := range b.Ops {
				if op.Kind.IsTerminator() && i != len(b.Ops)-1 {
					b.Ops = append(append(b.Ops[:i], b.Ops[i+1:]...), op)
					break
				}
			}
			sf.Blocks = append(sf.Blocks, sb)
		}
		for _, fx := range fixes {
			for _, id := range fx.ids {
				fx.b.Succs = append(fx.b.Succs, blocks[id])
				blocks[id].Preds = append(blocks[id].Preds, fx.b)
			}
		}
		prog.AddFunc(f)
		out.Funcs[fname] = sf
	}
	// Every symbol must be a global or some function's local: the
	// simulators size memory from those (ir.Program.Symbols), so an op
	// on any other symbol would reach past it.
	for si := nGlobals; si < nSyms; si++ {
		if !local[si] {
			return nil, fmt.Errorf("encode: symbol %s is neither a global nor a local", syms[si].Name)
		}
	}
	for _, pc := range calls {
		if pc.fi < 0 || pc.fi >= len(funcNames) {
			return nil, fmt.Errorf("encode: call target %d out of range", pc.fi)
		}
		pc.op.Callee = funcNames[pc.fi]
	}
	if r.remain() != 0 {
		return nil, fmt.Errorf("encode: %d trailing bytes", r.remain())
	}
	if err := ir.Verify(prog); err != nil {
		return nil, fmt.Errorf("encode: decoded program invalid: %w", err)
	}
	return out, nil
}

// decodeSpec reads and validates the header's bank geometry: bank
// count, ports per bank, and the unit binding (zero entries for the
// default one).
func decodeSpec(r *reader) (machine.BankSpec, error) {
	var spec machine.BankSpec
	banks, err := r.u8()
	if err != nil {
		return spec, err
	}
	ports, err := r.u8()
	if err != nil {
		return spec, err
	}
	spec.Banks, spec.PortsPerBank = int(banks), int(ports)
	n, err := r.uvarint()
	if err != nil {
		return spec, err
	}
	if n > machine.MaxMemUnits {
		return spec, fmt.Errorf("encode: unit binding has %d entries (max %d)", n, machine.MaxMemUnits)
	}
	if n > 0 {
		spec.UnitBinding = make([]int8, n)
		for j := range spec.UnitBinding {
			b, err := r.u8()
			if err != nil {
				return spec, err
			}
			spec.UnitBinding[j] = int8(b)
		}
	}
	if err := spec.Validate(); err != nil {
		return spec, fmt.Errorf("encode: %w", err)
	}
	return spec, nil
}

type callRef struct {
	op *ir.Op
	fi int
}

// decodeInstr reads one long instruction for a machine with the given
// number of units. A slot beyond them is corruption, and so are two
// ops writing one register.
func decodeInstr(r *reader, syms []*ir.Symbol, units int) (*compact.Instr, []*ir.Op, []callRef, error) {
	lo, err := r.u8()
	if err != nil {
		return nil, nil, nil, err
	}
	hi, err := r.u8()
	if err != nil {
		return nil, nil, nil, err
	}
	mask := uint16(lo) | uint16(hi)<<8
	if mask>>uint(units) != 0 {
		return nil, nil, nil, fmt.Errorf("slot mask %#x names a unit beyond the machine's %d", mask, units)
	}
	in := &compact.Instr{}
	var ops []*ir.Op
	var calls []callRef
	var written [65]bool // registers the instruction's ops write
	for u := 0; u < units; u++ {
		if mask&(1<<uint(u)) == 0 {
			continue
		}
		kind, err := r.u8()
		if err != nil {
			return nil, nil, nil, err
		}
		flags, err := r.u8()
		if err != nil {
			return nil, nil, nil, err
		}
		typ, err := r.u8()
		if err != nil {
			return nil, nil, nil, err
		}
		bank, err := r.u8()
		if err != nil {
			return nil, nil, nil, err
		}
		op := &ir.Op{
			Kind:   ir.OpKind(kind),
			Type:   ir.Type(typ),
			Bank:   machine.Bank(bank),
			Atomic: flags&fAtomic != 0,
		}
		readReg := func() (ir.Reg, error) {
			v, err := r.u8()
			if err != nil {
				return ir.NoReg, err
			}
			if v > 64 {
				return ir.NoReg, fmt.Errorf("register %d out of range", v)
			}
			return ir.Reg(v), nil
		}
		if flags&fDst != 0 {
			if op.Dst, err = readReg(); err != nil {
				return nil, nil, nil, err
			}
		}
		if flags&fA0 != 0 {
			if op.Args[0], err = readReg(); err != nil {
				return nil, nil, nil, err
			}
		}
		if flags&fA1 != 0 {
			if op.Args[1], err = readReg(); err != nil {
				return nil, nil, nil, err
			}
		}
		if flags&fIdx != 0 {
			if op.Idx, err = readReg(); err != nil {
				return nil, nil, nil, err
			}
		}
		if flags&fImm != 0 {
			if op.Imm, err = r.varint(); err != nil {
				return nil, nil, nil, err
			}
		}
		if flags&fFImm != 0 {
			bits, err := r.u64()
			if err != nil {
				return nil, nil, nil, err
			}
			op.FImm = math.Float64frombits(bits)
		}
		if flags&fSym != 0 {
			si, err := r.uvarint()
			if err != nil {
				return nil, nil, nil, err
			}
			if si >= uint64(len(syms)) {
				return nil, nil, nil, fmt.Errorf("symbol index %d out of range", si)
			}
			op.Sym = syms[si]
		}
		if op.Kind == ir.OpCall {
			fi, err := r.uvarint()
			if err != nil {
				return nil, nil, nil, err
			}
			calls = append(calls, callRef{op: op, fi: int(fi)})
		}
		// Loads and the ALU ops write Dst (NoReg included, as
		// sim.Machine counts it); control ops and stores write none.
		if op.Kind != ir.OpStore && op.Kind.Class() != machine.ClassControl {
			if written[op.Dst] {
				return nil, nil, nil, fmt.Errorf("two writes to %s in one instruction", op.Dst)
			}
			written[op.Dst] = true
		}
		in.Slots[u] = op
		ops = append(ops, op)
	}
	return in, ops, calls, nil
}
