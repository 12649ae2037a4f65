// Package lower translates the MiniC AST into the IR: a CFG of unpacked
// machine operations over virtual registers.
//
// Calling convention (documented in DESIGN.md): the reproduction uses
// static stack allocation, a technique common in DSP compilers of the
// period — recursion is rejected, so every function's frame (parameter
// slots, array locals, spill slots, callee-save slots) is laid out at
// link time on the two program stacks. Callers store argument values
// into the callee's parameter slots (ordinary, partitionable memory
// operations), the callee loads them into registers on entry, and
// scalar results return in a dedicated register inserted by the
// register allocator. Scalar locals are promoted to virtual registers;
// only arrays, parameters, spills and save slots generate memory
// traffic.
package lower

import (
	"fmt"
	"math"

	"dualbank/internal/ir"
	"dualbank/internal/minic"
)

// Program lowers an analyzed MiniC file to an IR program.
func Program(file *minic.File, name string) (*ir.Program, error) {
	lw := &lowerer{
		prog:   &ir.Program{Name: name},
		syms:   make(map[*minic.VarSym]*ir.Symbol),
		regs:   make(map[*minic.VarSym]ir.Reg),
		params: make(map[string][]*ir.Symbol),
		stored: make(map[*ir.Symbol]bool),
	}
	for _, d := range file.Decls {
		g := &ir.Symbol{
			Name: d.Name,
			Kind: ir.SymGlobal,
			Elem: typeOf(d.Type),
			Size: d.Sym.Words(),
			Dims: d.Dims,
		}
		if d.Init != nil {
			words, err := constWords(d)
			if err != nil {
				return nil, err
			}
			g.Init = words
		}
		lw.syms[d.Sym] = g
		lw.prog.Globals = append(lw.prog.Globals, g)
	}
	// Create parameter slots for every function up front so that call
	// sites can be lowered before their callee.
	for _, fn := range file.Funcs {
		for _, p := range fn.Params {
			slot := &ir.Symbol{
				Name: fn.Name + "." + p.Name,
				Kind: ir.SymLocal,
				Elem: typeOf(p.Type),
				Size: 1,
			}
			lw.params[fn.Name] = append(lw.params[fn.Name], slot)
		}
	}
	for _, fn := range file.Funcs {
		f, err := lw.lowerFunc(fn)
		if err != nil {
			return nil, err
		}
		lw.prog.AddFunc(f)
	}
	// Mark globals that are never stored to as read-only; duplicating
	// them needs no coherence stores.
	for _, g := range lw.prog.Globals {
		g.ReadOnly = !lw.stored[g]
	}
	if err := ir.Verify(lw.prog); err != nil {
		return nil, fmt.Errorf("lower: %w", err)
	}
	if err := checkNoRecursion(lw.prog); err != nil {
		return nil, err
	}
	return lw.prog, nil
}

func typeOf(t minic.TypeName) ir.Type {
	switch t {
	case minic.TypeInt:
		return ir.TInt
	case minic.TypeFloat:
		return ir.TFloat
	}
	return ir.TVoid
}

type lowerer struct {
	prog   *ir.Program
	syms   map[*minic.VarSym]*ir.Symbol // arrays and globals
	regs   map[*minic.VarSym]ir.Reg     // promoted scalar locals/params
	params map[string][]*ir.Symbol      // per-function parameter slots
	stored map[*ir.Symbol]bool

	f         *ir.Func
	cur       *ir.Block
	loopDepth int
	breaks    []*ir.Block
	conts     []*ir.Block
}

func (lw *lowerer) emit(op *ir.Op) *ir.Op {
	lw.cur.Ops = append(lw.cur.Ops, op)
	return op
}

func (lw *lowerer) newBlock() *ir.Block {
	b := lw.f.NewBlock()
	b.LoopDepth = lw.loopDepth
	return b
}

// link adds a CFG edge from to b.
func link(from, to *ir.Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// br terminates the current block with an unconditional branch and
// makes `to` the current block... callers switch blocks themselves.
func (lw *lowerer) br(to *ir.Block) {
	lw.emit(&ir.Op{Kind: ir.OpBr})
	link(lw.cur, to)
}

func (lw *lowerer) condBr(cond ir.Reg, ifTrue, ifFalse *ir.Block) {
	lw.emit(&ir.Op{Kind: ir.OpCondBr, Args: [2]ir.Reg{cond}})
	link(lw.cur, ifTrue)
	link(lw.cur, ifFalse)
}

func (lw *lowerer) lowerFunc(fn *minic.FuncDecl) (*ir.Func, error) {
	f := ir.NewFunc(fn.Name, typeOf(fn.Ret))
	lw.f = f
	lw.loopDepth = 0
	lw.cur = f.NewBlock()

	// Parameters: load each incoming slot into a fresh register.
	slots := lw.params[fn.Name]
	for i, p := range fn.Params {
		slot := slots[i]
		f.Params = append(f.Params, slot)
		f.Locals = append(f.Locals, slot)
		r := f.NewReg(typeOf(p.Type))
		f.ParamRegs = append(f.ParamRegs, r)
		lw.regs[p.Sym] = r
		lw.emit(&ir.Op{Kind: ir.OpLoad, Type: typeOf(p.Type), Dst: r, Sym: slot})
	}
	if err := lw.stmt(fn.Body); err != nil {
		return nil, err
	}
	// Seal the final block if control can fall off the end.
	if t := lw.cur.Terminator(); t == nil || !t.Kind.IsTerminator() {
		if f.RetType == ir.TVoid {
			lw.emit(&ir.Op{Kind: ir.OpRet})
		} else {
			z := lw.zero(f.RetType)
			lw.emit(&ir.Op{Kind: ir.OpRet, Args: [2]ir.Reg{z}})
		}
	}
	return f, nil
}

func (lw *lowerer) zero(t ir.Type) ir.Reg {
	r := lw.f.NewReg(t)
	if t == ir.TFloat {
		lw.emit(&ir.Op{Kind: ir.OpFConst, Type: t, Dst: r})
	} else {
		lw.emit(&ir.Op{Kind: ir.OpConst, Type: t, Dst: r})
	}
	return r
}

func (lw *lowerer) stmt(s minic.Stmt) error {
	switch s := s.(type) {
	case *minic.BlockStmt:
		for _, st := range s.Stmts {
			if err := lw.stmt(st); err != nil {
				return err
			}
		}
		return nil
	case *minic.EmptyStmt:
		return nil
	case *minic.DeclStmt:
		return lw.declStmt(s.Decl)
	case *minic.ExprStmt:
		_, err := lw.expr(s.X)
		return err
	case *minic.IfStmt:
		return lw.ifStmt(s)
	case *minic.WhileStmt:
		return lw.whileStmt(s)
	case *minic.DoWhileStmt:
		return lw.doWhileStmt(s)
	case *minic.ForStmt:
		return lw.forStmt(s)
	case *minic.SwitchStmt:
		return lw.switchStmt(s)
	case *minic.ReturnStmt:
		if s.X != nil {
			v, err := lw.exprAs(s.X, lw.f.RetType)
			if err != nil {
				return err
			}
			lw.emit(&ir.Op{Kind: ir.OpRet, Args: [2]ir.Reg{v}})
		} else {
			lw.emit(&ir.Op{Kind: ir.OpRet})
		}
		lw.cur = lw.newBlock() // unreachable continuation
		return nil
	case *minic.BreakStmt:
		lw.br(lw.breaks[len(lw.breaks)-1])
		lw.cur = lw.newBlock()
		return nil
	case *minic.ContinueStmt:
		lw.br(lw.conts[len(lw.conts)-1])
		lw.cur = lw.newBlock()
		return nil
	}
	return fmt.Errorf("lower: unknown statement %T", s)
}

func (lw *lowerer) declStmt(d *minic.VarDecl) error {
	if d.Sym.IsArray() {
		sym := &ir.Symbol{
			Name: lw.f.Name + "." + d.Name,
			Kind: ir.SymLocal,
			Elem: typeOf(d.Type),
			Size: d.Sym.Words(),
			Dims: d.Dims,
		}
		lw.syms[d.Sym] = sym
		lw.f.Locals = append(lw.f.Locals, sym)
		if d.Init != nil {
			words, err := constWords(d)
			if err != nil {
				return err
			}
			// C semantics: re-initialize on each entry to the scope.
			for i, w := range words {
				v := lw.f.NewReg(sym.Elem)
				if sym.Elem == ir.TFloat {
					lw.emit(&ir.Op{Kind: ir.OpFConst, Type: sym.Elem, Dst: v,
						FImm: float64(math.Float32frombits(w))})
				} else {
					lw.emit(&ir.Op{Kind: ir.OpConst, Type: sym.Elem, Dst: v, Imm: int64(int32(w))})
				}
				ix := lw.f.NewReg(ir.TInt)
				lw.emit(&ir.Op{Kind: ir.OpConst, Type: ir.TInt, Dst: ix, Imm: int64(i)})
				lw.store(sym, ix, v)
			}
		}
		return nil
	}
	// Scalar local: promote to a virtual register.
	r := lw.f.NewReg(typeOf(d.Type))
	lw.regs[d.Sym] = r
	if d.Init != nil {
		v, err := lw.exprAs(d.Init, typeOf(d.Type))
		if err != nil {
			return err
		}
		lw.emit(&ir.Op{Kind: ir.OpMov, Type: typeOf(d.Type), Dst: r, Args: [2]ir.Reg{v}})
	} else {
		// Define the register so liveness never sees an upward-exposed
		// use of an undefined value.
		if typeOf(d.Type) == ir.TFloat {
			lw.emit(&ir.Op{Kind: ir.OpFConst, Type: ir.TFloat, Dst: r})
		} else {
			lw.emit(&ir.Op{Kind: ir.OpConst, Type: ir.TInt, Dst: r})
		}
	}
	return nil
}

func (lw *lowerer) ifStmt(s *minic.IfStmt) error {
	cond, err := lw.expr(s.Cond)
	if err != nil {
		return err
	}
	thenB := lw.newBlock()
	exitB := lw.newBlock()
	elseB := exitB
	if s.Else != nil {
		elseB = lw.newBlock()
	}
	lw.condBr(cond, thenB, elseB)
	lw.cur = thenB
	if err := lw.stmt(s.Then); err != nil {
		return err
	}
	lw.br(exitB)
	if s.Else != nil {
		lw.cur = elseB
		if err := lw.stmt(s.Else); err != nil {
			return err
		}
		lw.br(exitB)
	}
	lw.cur = exitB
	return nil
}

func (lw *lowerer) whileStmt(s *minic.WhileStmt) error {
	lw.loopDepth++
	condB := lw.newBlock()
	bodyB := lw.newBlock()
	lw.loopDepth--
	exitB := lw.newBlock()
	lw.loopDepth++

	lw.br(condB)
	lw.cur = condB
	cond, err := lw.expr(s.Cond)
	if err != nil {
		return err
	}
	lw.condBr(cond, bodyB, exitB)

	lw.breaks = append(lw.breaks, exitB)
	lw.conts = append(lw.conts, condB)
	lw.cur = bodyB
	err = lw.stmt(s.Body)
	lw.breaks = lw.breaks[:len(lw.breaks)-1]
	lw.conts = lw.conts[:len(lw.conts)-1]
	if err != nil {
		return err
	}
	lw.br(condB)
	lw.loopDepth--
	lw.cur = exitB
	return nil
}

// doWhileStmt lowers a bottom-tested loop: body, then condition with a
// back edge. continue targets the condition block, break the exit.
func (lw *lowerer) doWhileStmt(s *minic.DoWhileStmt) error {
	lw.loopDepth++
	bodyB := lw.newBlock()
	condB := lw.newBlock()
	lw.loopDepth--
	exitB := lw.newBlock()
	lw.loopDepth++

	lw.br(bodyB)
	lw.breaks = append(lw.breaks, exitB)
	lw.conts = append(lw.conts, condB)
	lw.cur = bodyB
	err := lw.stmt(s.Body)
	lw.breaks = lw.breaks[:len(lw.breaks)-1]
	lw.conts = lw.conts[:len(lw.conts)-1]
	if err != nil {
		return err
	}
	lw.br(condB)
	lw.cur = condB
	cond, err := lw.expr(s.Cond)
	if err != nil {
		return err
	}
	lw.condBr(cond, bodyB, exitB)
	lw.loopDepth--
	lw.cur = exitB
	return nil
}

func (lw *lowerer) forStmt(s *minic.ForStmt) error {
	if s.Init != nil {
		if err := lw.stmt(s.Init); err != nil {
			return err
		}
	}
	lw.loopDepth++
	condB := lw.newBlock()
	bodyB := lw.newBlock()
	postB := lw.newBlock()
	lw.loopDepth--
	exitB := lw.newBlock()
	lw.loopDepth++

	lw.br(condB)
	lw.cur = condB
	if s.Cond != nil {
		cond, err := lw.expr(s.Cond)
		if err != nil {
			return err
		}
		lw.condBr(cond, bodyB, exitB)
	} else {
		lw.br(bodyB)
	}

	lw.breaks = append(lw.breaks, exitB)
	lw.conts = append(lw.conts, postB)
	lw.cur = bodyB
	err := lw.stmt(s.Body)
	lw.breaks = lw.breaks[:len(lw.breaks)-1]
	lw.conts = lw.conts[:len(lw.conts)-1]
	if err != nil {
		return err
	}
	lw.br(postB)
	lw.cur = postB
	if s.Post != nil {
		if _, err := lw.expr(s.Post); err != nil {
			return err
		}
	}
	lw.br(condB)
	lw.loopDepth--
	lw.cur = exitB
	return nil
}

// switchStmt lowers a C switch: the scrutinee is evaluated once, a
// chain of equality tests dispatches to the matching case body, and
// bodies fall through to the next case unless they break.
func (lw *lowerer) switchStmt(s *minic.SwitchStmt) error {
	x, err := lw.exprAs(s.X, ir.TInt)
	if err != nil {
		return err
	}
	exitB := lw.newBlock()
	bodies := make([]*ir.Block, len(s.Cases))
	for i := range s.Cases {
		bodies[i] = lw.newBlock()
	}

	// Dispatch chain.
	defaultIdx := -1
	for i, c := range s.Cases {
		if c.Default {
			defaultIdx = i
			continue
		}
		v, err := lw.exprAs(c.Val, ir.TInt)
		if err != nil {
			return err
		}
		t := lw.f.NewReg(ir.TInt)
		lw.emit(&ir.Op{Kind: ir.OpSetEQ, Type: ir.TInt, Dst: t, Args: [2]ir.Reg{x, v}})
		next := lw.newBlock()
		lw.condBr(t, bodies[i], next)
		lw.cur = next
	}
	if defaultIdx >= 0 {
		lw.br(bodies[defaultIdx])
	} else {
		lw.br(exitB)
	}

	// Case bodies, falling through in declaration order.
	lw.breaks = append(lw.breaks, exitB)
	for i, c := range s.Cases {
		lw.cur = bodies[i]
		for _, st := range c.Stmts {
			if err := lw.stmt(st); err != nil {
				lw.breaks = lw.breaks[:len(lw.breaks)-1]
				return err
			}
		}
		if i+1 < len(bodies) {
			lw.br(bodies[i+1])
		} else {
			lw.br(exitB)
		}
	}
	lw.breaks = lw.breaks[:len(lw.breaks)-1]
	lw.cur = exitB
	return nil
}

// --- Expressions ---

// exprAs lowers e and converts the result to type t.
func (lw *lowerer) exprAs(e minic.Expr, t ir.Type) (ir.Reg, error) {
	r, err := lw.expr(e)
	if err != nil {
		return ir.NoReg, err
	}
	return lw.convert(r, typeOf(e.TypeOf()), t), nil
}

func (lw *lowerer) convert(r ir.Reg, from, to ir.Type) ir.Reg {
	if from == to || to == ir.TVoid {
		return r
	}
	d := lw.f.NewReg(to)
	k := ir.OpIntToFloat
	if from == ir.TFloat {
		k = ir.OpFloatToInt
	}
	lw.emit(&ir.Op{Kind: k, Type: to, Dst: d, Args: [2]ir.Reg{r}})
	return d
}

func (lw *lowerer) load(sym *ir.Symbol, idx ir.Reg) ir.Reg {
	d := lw.f.NewReg(sym.Elem)
	lw.emit(&ir.Op{Kind: ir.OpLoad, Type: sym.Elem, Dst: d, Sym: sym, Idx: idx})
	return d
}

func (lw *lowerer) store(sym *ir.Symbol, idx ir.Reg, v ir.Reg) {
	lw.stored[sym] = true
	lw.emit(&ir.Op{Kind: ir.OpStore, Args: [2]ir.Reg{v}, Sym: sym, Idx: idx})
}

// place is an lvalue: either a promoted register or a memory location.
type place struct {
	reg ir.Reg     // valid when sym == nil
	sym *ir.Symbol // memory location
	idx ir.Reg     // index register (NoReg for scalars)
	typ ir.Type
}

func (lw *lowerer) lvalue(e minic.Expr) (place, error) {
	switch e := e.(type) {
	case *minic.Ident:
		if r, ok := lw.regs[e.Sym]; ok {
			return place{reg: r, typ: lw.f.RegType(r)}, nil
		}
		sym := lw.syms[e.Sym]
		return place{sym: sym, typ: sym.Elem}, nil
	case *minic.IndexExpr:
		sym := lw.syms[e.Arr.Sym]
		idx, err := lw.index(sym, e)
		if err != nil {
			return place{}, err
		}
		return place{sym: sym, idx: idx, typ: sym.Elem}, nil
	}
	return place{}, fmt.Errorf("lower: not an lvalue: %T", e)
}

// index computes the (flattened) element index register for an array
// access.
func (lw *lowerer) index(sym *ir.Symbol, e *minic.IndexExpr) (ir.Reg, error) {
	idx, err := lw.exprAs(e.Idxs[0], ir.TInt)
	if err != nil {
		return ir.NoReg, err
	}
	if len(e.Idxs) == 2 {
		cols := lw.f.NewReg(ir.TInt)
		lw.emit(&ir.Op{Kind: ir.OpConst, Type: ir.TInt, Dst: cols, Imm: int64(sym.Dims[1])})
		row := lw.f.NewReg(ir.TInt)
		lw.emit(&ir.Op{Kind: ir.OpMul, Type: ir.TInt, Dst: row, Args: [2]ir.Reg{idx, cols}})
		j, err := lw.exprAs(e.Idxs[1], ir.TInt)
		if err != nil {
			return ir.NoReg, err
		}
		flat := lw.f.NewReg(ir.TInt)
		lw.emit(&ir.Op{Kind: ir.OpAdd, Type: ir.TInt, Dst: flat, Args: [2]ir.Reg{row, j}})
		return flat, nil
	}
	return idx, nil
}

func (lw *lowerer) readPlace(p place) ir.Reg {
	if p.sym == nil {
		return p.reg
	}
	return lw.load(p.sym, p.idx)
}

func (lw *lowerer) writePlace(p place, v ir.Reg) {
	if p.sym == nil {
		lw.emit(&ir.Op{Kind: ir.OpMov, Type: p.typ, Dst: p.reg, Args: [2]ir.Reg{v}})
		return
	}
	lw.store(p.sym, p.idx, v)
}

func (lw *lowerer) expr(e minic.Expr) (ir.Reg, error) {
	switch e := e.(type) {
	case *minic.IntLit:
		r := lw.f.NewReg(ir.TInt)
		lw.emit(&ir.Op{Kind: ir.OpConst, Type: ir.TInt, Dst: r, Imm: e.Val})
		return r, nil
	case *minic.FloatLit:
		r := lw.f.NewReg(ir.TFloat)
		lw.emit(&ir.Op{Kind: ir.OpFConst, Type: ir.TFloat, Dst: r, FImm: e.Val})
		return r, nil
	case *minic.Ident:
		p, err := lw.lvalue(e)
		if err != nil {
			return ir.NoReg, err
		}
		return lw.readPlace(p), nil
	case *minic.IndexExpr:
		p, err := lw.lvalue(e)
		if err != nil {
			return ir.NoReg, err
		}
		return lw.readPlace(p), nil
	case *minic.CallExpr:
		return lw.call(e)
	case *minic.UnaryExpr:
		return lw.unary(e)
	case *minic.CastExpr:
		return lw.exprAs(e.X, typeOf(e.To))
	case *minic.BinaryExpr:
		return lw.binary(e)
	case *minic.CondExpr:
		return lw.condExpr(e)
	case *minic.AssignExpr:
		return lw.assign(e)
	case *minic.IncDecExpr:
		return lw.incDec(e)
	}
	return ir.NoReg, fmt.Errorf("lower: unknown expression %T", e)
}

func (lw *lowerer) call(e *minic.CallExpr) (ir.Reg, error) {
	slots := lw.params[e.Name]
	for i, a := range e.Args {
		v, err := lw.exprAs(a, slots[i].Elem)
		if err != nil {
			return ir.NoReg, err
		}
		lw.store(slots[i], ir.NoReg, v)
	}
	ret := typeOf(e.TypeOf())
	op := &ir.Op{Kind: ir.OpCall, Callee: e.Name, Type: ret}
	if ret != ir.TVoid {
		op.Dst = lw.f.NewReg(ret)
	}
	lw.emit(op)
	return op.Dst, nil
}

func (lw *lowerer) unary(e *minic.UnaryExpr) (ir.Reg, error) {
	x, err := lw.expr(e.X)
	if err != nil {
		return ir.NoReg, err
	}
	t := typeOf(e.TypeOf())
	d := lw.f.NewReg(t)
	switch e.Op {
	case minic.Minus:
		k := ir.OpNeg
		if t == ir.TFloat {
			k = ir.OpFNeg
		}
		lw.emit(&ir.Op{Kind: k, Type: t, Dst: d, Args: [2]ir.Reg{x}})
	case minic.Bang:
		// !x == (x == 0)
		z := lw.zero(typeOf(e.X.TypeOf()))
		k := ir.OpSetEQ
		if typeOf(e.X.TypeOf()) == ir.TFloat {
			k = ir.OpFSetEQ
		}
		lw.emit(&ir.Op{Kind: k, Type: ir.TInt, Dst: d, Args: [2]ir.Reg{x, z}})
	case minic.Tilde:
		lw.emit(&ir.Op{Kind: ir.OpNot, Type: ir.TInt, Dst: d, Args: [2]ir.Reg{x}})
	default:
		return ir.NoReg, fmt.Errorf("lower: bad unary op %s", e.Op)
	}
	return d, nil
}

var intBinKind = map[minic.Kind]ir.OpKind{
	minic.Plus: ir.OpAdd, minic.Minus: ir.OpSub, minic.Star: ir.OpMul,
	minic.Slash: ir.OpDiv, minic.Percent: ir.OpRem,
	minic.Amp: ir.OpAnd, minic.Pipe: ir.OpOr, minic.Caret: ir.OpXor,
	minic.Shl: ir.OpShl, minic.Shr: ir.OpShr,
	minic.EQ: ir.OpSetEQ, minic.NE: ir.OpSetNE, minic.LT: ir.OpSetLT,
	minic.LE: ir.OpSetLE, minic.GT: ir.OpSetGT, minic.GE: ir.OpSetGE,
}

var floatBinKind = map[minic.Kind]ir.OpKind{
	minic.Plus: ir.OpFAdd, minic.Minus: ir.OpFSub, minic.Star: ir.OpFMul,
	minic.Slash: ir.OpFDiv,
	minic.EQ:    ir.OpFSetEQ, minic.NE: ir.OpFSetNE, minic.LT: ir.OpFSetLT,
	minic.LE: ir.OpFSetLE, minic.GT: ir.OpFSetGT, minic.GE: ir.OpFSetGE,
}

func (lw *lowerer) binary(e *minic.BinaryExpr) (ir.Reg, error) {
	if e.Op == minic.AndAnd || e.Op == minic.OrOr {
		return lw.shortCircuit(e)
	}
	// Operand type: float if either side is float (comparisons compare
	// in the promoted type but produce int).
	opT := ir.TInt
	if typeOf(e.L.TypeOf()) == ir.TFloat || typeOf(e.R.TypeOf()) == ir.TFloat {
		opT = ir.TFloat
	}
	l, err := lw.exprAs(e.L, opT)
	if err != nil {
		return ir.NoReg, err
	}
	r, err := lw.exprAs(e.R, opT)
	if err != nil {
		return ir.NoReg, err
	}
	table := intBinKind
	if opT == ir.TFloat {
		table = floatBinKind
	}
	k, ok := table[e.Op]
	if !ok {
		return ir.NoReg, fmt.Errorf("lower: bad binary op %s for %s", e.Op, opT)
	}
	resT := typeOf(e.TypeOf())
	d := lw.f.NewReg(resT)
	lw.emit(&ir.Op{Kind: k, Type: resT, Dst: d, Args: [2]ir.Reg{l, r}})
	return d, nil
}

// shortCircuit lowers && and || with proper control flow.
func (lw *lowerer) shortCircuit(e *minic.BinaryExpr) (ir.Reg, error) {
	d := lw.f.NewReg(ir.TInt)
	l, err := lw.expr(e.L)
	if err != nil {
		return ir.NoReg, err
	}
	evalR := lw.newBlock()
	skip := lw.newBlock()
	exit := lw.newBlock()
	if e.Op == minic.AndAnd {
		lw.condBr(l, evalR, skip) // false -> result 0
	} else {
		lw.condBr(l, skip, evalR) // true -> result 1
	}
	lw.cur = skip
	c := &ir.Op{Kind: ir.OpConst, Type: ir.TInt, Dst: d}
	if e.Op == minic.OrOr {
		c.Imm = 1
	}
	lw.emit(c)
	lw.br(exit)
	lw.cur = evalR
	r, err := lw.expr(e.R)
	if err != nil {
		return ir.NoReg, err
	}
	// Normalize to 0/1.
	z := lw.zero(typeOf(e.R.TypeOf()))
	k := ir.OpSetNE
	if typeOf(e.R.TypeOf()) == ir.TFloat {
		k = ir.OpFSetNE
	}
	lw.emit(&ir.Op{Kind: k, Type: ir.TInt, Dst: d, Args: [2]ir.Reg{r, z}})
	lw.br(exit)
	lw.cur = exit
	return d, nil
}

func (lw *lowerer) condExpr(e *minic.CondExpr) (ir.Reg, error) {
	t := typeOf(e.TypeOf())
	d := lw.f.NewReg(t)
	c, err := lw.expr(e.Cond)
	if err != nil {
		return ir.NoReg, err
	}
	thenB := lw.newBlock()
	elseB := lw.newBlock()
	exit := lw.newBlock()
	lw.condBr(c, thenB, elseB)
	lw.cur = thenB
	v, err := lw.exprAs(e.Then, t)
	if err != nil {
		return ir.NoReg, err
	}
	lw.emit(&ir.Op{Kind: ir.OpMov, Type: t, Dst: d, Args: [2]ir.Reg{v}})
	lw.br(exit)
	lw.cur = elseB
	v, err = lw.exprAs(e.Else, t)
	if err != nil {
		return ir.NoReg, err
	}
	lw.emit(&ir.Op{Kind: ir.OpMov, Type: t, Dst: d, Args: [2]ir.Reg{v}})
	lw.br(exit)
	lw.cur = exit
	return d, nil
}

var compoundOp = map[minic.Kind]minic.Kind{
	minic.PlusAssign: minic.Plus, minic.MinusAssign: minic.Minus,
	minic.StarAssign: minic.Star, minic.SlashAssign: minic.Slash,
	minic.PercentAssign: minic.Percent, minic.AmpAssign: minic.Amp,
	minic.PipeAssign: minic.Pipe, minic.CaretAssign: minic.Caret,
	minic.ShlAssign: minic.Shl, minic.ShrAssign: minic.Shr,
}

func (lw *lowerer) assign(e *minic.AssignExpr) (ir.Reg, error) {
	p, err := lw.lvalue(e.Lhs)
	if err != nil {
		return ir.NoReg, err
	}
	if e.Op == minic.Assign {
		v, err := lw.exprAs(e.Rhs, p.typ)
		if err != nil {
			return ir.NoReg, err
		}
		lw.writePlace(p, v)
		return v, nil
	}
	// Compound assignment: read-modify-write, index evaluated once.
	old := lw.readPlace(p)
	binOp := compoundOp[e.Op]
	opT := p.typ
	if typeOf(e.Rhs.TypeOf()) == ir.TFloat {
		opT = ir.TFloat
	}
	l := lw.convert(old, p.typ, opT)
	r, err := lw.exprAs(e.Rhs, opT)
	if err != nil {
		return ir.NoReg, err
	}
	table := intBinKind
	if opT == ir.TFloat {
		table = floatBinKind
	}
	k, ok := table[binOp]
	if !ok {
		return ir.NoReg, fmt.Errorf("lower: bad compound op %s for %s", e.Op, opT)
	}
	tmp := lw.f.NewReg(opT)
	lw.emit(&ir.Op{Kind: k, Type: opT, Dst: tmp, Args: [2]ir.Reg{l, r}})
	v := lw.convert(tmp, opT, p.typ)
	lw.writePlace(p, v)
	return v, nil
}

func (lw *lowerer) incDec(e *minic.IncDecExpr) (ir.Reg, error) {
	p, err := lw.lvalue(e.X)
	if err != nil {
		return ir.NoReg, err
	}
	old := lw.readPlace(p)
	if e.Postfix && p.sym == nil {
		// For a register-resident variable, readPlace returns the
		// register itself; the old value must be copied out before the
		// write or the postfix result would see the update.
		cp := lw.f.NewReg(p.typ)
		lw.emit(&ir.Op{Kind: ir.OpMov, Type: p.typ, Dst: cp, Args: [2]ir.Reg{old}})
		old = cp
	}
	one := lw.f.NewReg(p.typ)
	addK, subK := ir.OpAdd, ir.OpSub
	if p.typ == ir.TFloat {
		lw.emit(&ir.Op{Kind: ir.OpFConst, Type: p.typ, Dst: one, FImm: 1})
		addK, subK = ir.OpFAdd, ir.OpFSub
	} else {
		lw.emit(&ir.Op{Kind: ir.OpConst, Type: p.typ, Dst: one, Imm: 1})
	}
	k := addK
	if e.Op == minic.Dec {
		k = subK
	}
	nw := lw.f.NewReg(p.typ)
	lw.emit(&ir.Op{Kind: k, Type: p.typ, Dst: nw, Args: [2]ir.Reg{old, one}})
	lw.writePlace(p, nw)
	if e.Postfix {
		return old, nil
	}
	return nw, nil
}

// --- Constant initializers ---

// constWords evaluates a declaration initializer to raw 32-bit words.
// A constant initializer takes the value the same assignment takes at
// run time: the machine loads the literal's 32-bit value (an integer
// wrapped to int32, a float rounded to float32), then converts it to
// the declared type.
func constWords(d *minic.VarDecl) ([]uint32, error) {
	if len(d.Dims) == 0 {
		w, err := constWord(d.Init, d.Type)
		if err != nil {
			return nil, err
		}
		return []uint32{w}, nil
	}
	lst := d.Init.(*minic.InitList)
	words := make([]uint32, initWords(lst, d.Dims))
	if err := flattenInit(words, lst, d.Type, d.Dims); err != nil {
		return nil, err
	}
	return words, nil
}

// initWords counts the words lst initializes: one per element, and a
// whole row per nested list.
func initWords(lst *minic.InitList, dims []int) int {
	n := len(lst.Vals)
	for _, e := range lst.Elems {
		if _, ok := e.(*minic.InitList); ok {
			n += dims[1] - 1
		}
	}
	return n
}

// flattenInit writes lst's words into out, sized by initWords and
// zeroed, so a short row comes out zero-padded.
func flattenInit(out []uint32, lst *minic.InitList, t minic.TypeName, dims []int) error {
	elems := lst.Elems
	i := 0
	for _, v := range lst.Vals {
		switch v.Kind {
		case minic.InitInt:
			out[i] = intWord(v.Int(), t)
		case minic.InitFloat:
			out[i] = floatWord(v.Float(), t)
		default:
			e := elems[0]
			elems = elems[1:]
			if sub, ok := e.(*minic.InitList); ok {
				if err := flattenInit(out[i:i+dims[1]], sub, t, dims[1:]); err != nil {
					return err
				}
				i += dims[1]
				continue
			}
			w, err := constWord(e, t)
			if err != nil {
				return err
			}
			out[i] = w
		}
		i++
	}
	return nil
}

// constWord evaluates a constant expression: a literal under any
// number of minus signs.
func constWord(e minic.Expr, t minic.TypeName) (uint32, error) {
	neg := false
	for {
		u, ok := e.(*minic.UnaryExpr)
		if !ok || u.Op != minic.Minus {
			break
		}
		neg = !neg
		e = u.X
	}
	switch e := e.(type) {
	case *minic.IntLit:
		v := e.Val
		if neg {
			v = -v
		}
		return intWord(v, t), nil
	case *minic.FloatLit:
		v := e.Val
		if neg {
			v = -v
		}
		return floatWord(v, t), nil
	}
	return 0, fmt.Errorf("lower: non-constant initializer %T", e)
}

// intWord is the word an integer literal gives a constant of type t:
// wrapped to int32, then converted like OpIntToFloat.
func intWord(v int64, t minic.TypeName) uint32 {
	i := int32(v)
	if t == minic.TypeFloat {
		return math.Float32bits(float32(i))
	}
	return uint32(i)
}

// floatWord is the word a float literal gives a constant of type t:
// rounded to float32, then converted like OpFloatToInt.
func floatWord(v float64, t minic.TypeName) uint32 {
	f := float32(v)
	if t == minic.TypeFloat {
		return math.Float32bits(f)
	}
	return uint32(ir.FloatToInt(f))
}

// checkNoRecursion rejects call-graph cycles: static stack allocation
// requires an acyclic call graph.
func checkNoRecursion(p *ir.Program) error {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	state := make(map[string]int)
	var visit func(name string, path []string) error
	visit = func(name string, path []string) error {
		switch state[name] {
		case grey:
			return fmt.Errorf("lower: recursion detected: %v -> %s (static stack allocation requires an acyclic call graph)", path, name)
		case black:
			return nil
		}
		state[name] = grey
		f := p.Func(name)
		if f != nil {
			for _, b := range f.Blocks {
				for _, op := range b.Ops {
					if op.Kind == ir.OpCall {
						if err := visit(op.Callee, append(path, name)); err != nil {
							return err
						}
					}
				}
			}
		}
		state[name] = black
		return nil
	}
	for _, f := range p.Funcs {
		if err := visit(f.Name, nil); err != nil {
			return err
		}
	}
	return nil
}
