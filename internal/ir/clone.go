package ir

// Clone returns a deep copy of the program: every Func, Block, Op and
// Symbol is fresh, and every pointer between them (Op.Sym, Op.DupPair,
// Block.Succs/Preds, Func.Params/Locals) refers into the copy. The data
// allocation pass rewrites symbols' banks and addresses, retags memory
// operations and inserts coherence stores, so a program shared between
// back-end runs must be cloned once per run.
//
// Symbol.Dims and Symbol.Init are shared with the original: no pass
// writes them after lowering. Their capacities are clipped so an
// append on either side reallocates instead of writing through.
//
// Clone only reads p, so concurrent Clones of one program are safe as
// long as nothing mutates it. It relies on the Verify invariant that
// each block's ID is its index in Func.Blocks.
func (p *Program) Clone() *Program {
	syms := make(map[*Symbol]*Symbol, len(p.Globals))
	sym := func(s *Symbol) *Symbol {
		if s == nil {
			return nil
		}
		if c, ok := syms[s]; ok {
			return c
		}
		c := new(Symbol)
		*c = *s
		c.Dims = s.Dims[:len(s.Dims):len(s.Dims)]
		c.Init = s.Init[:len(s.Init):len(s.Init)]
		syms[s] = c
		return c
	}
	symList := func(ss []*Symbol) []*Symbol {
		out := make([]*Symbol, len(ss))
		for i, s := range ss {
			out[i] = sym(s)
		}
		return out
	}

	q := &Program{Name: p.Name, Globals: symList(p.Globals), Funcs: make([]*Func, len(p.Funcs))}
	paired := false
	for fi, f := range p.Funcs {
		g := new(Func)
		*g = *f
		g.Params = symList(f.Params)
		g.Locals = symList(f.Locals)
		g.ParamRegs = append([]Reg(nil), f.ParamRegs...)
		g.regType = append([]Type(nil), f.regType...)
		g.Blocks = make([]*Block, len(f.Blocks))
		for bi, b := range f.Blocks {
			nb := new(Block)
			*nb = *b
			g.Blocks[bi] = nb
		}
		blocks := func(bs []*Block) []*Block {
			out := make([]*Block, len(bs))
			for i, b := range bs {
				if b.ID < 0 || b.ID >= len(f.Blocks) || f.Blocks[b.ID] != b {
					panic("ir: Clone: " + f.Name + ": CFG edge to a block outside the function")
				}
				out[i] = g.Blocks[b.ID]
			}
			return out
		}
		for bi, b := range f.Blocks {
			nb := g.Blocks[bi]
			nb.Succs = blocks(b.Succs)
			nb.Preds = blocks(b.Preds)
			// One backing array per block keeps the copy's allocation
			// count near the original's block count, not its op count.
			ops := make([]Op, len(b.Ops))
			nb.Ops = make([]*Op, len(b.Ops))
			for i, o := range b.Ops {
				ops[i] = *o
				c := &ops[i]
				c.Sym = sym(o.Sym)
				c.CallArgs = append([]Reg(nil), o.CallArgs...)
				paired = paired || o.DupPair != nil
				nb.Ops[i] = c
			}
		}
		q.Funcs[fi] = g
	}
	if paired {
		q.relinkDupPairs(p)
	}
	return q
}

// relinkDupPairs points every cloned op's DupPair at the clone of its
// original partner. q is a fresh Clone of p, so the two programs'
// operations correspond position by position.
func (q *Program) relinkDupPairs(p *Program) {
	clone := make(map[*Op]*Op)
	for fi, f := range p.Funcs {
		for bi, b := range f.Blocks {
			for i, o := range b.Ops {
				clone[o] = q.Funcs[fi].Blocks[bi].Ops[i]
			}
		}
	}
	for _, f := range q.Funcs {
		for _, b := range f.Blocks {
			for _, o := range b.Ops {
				if o.DupPair != nil {
					c, ok := clone[o.DupPair]
					if !ok {
						panic("ir: Clone: duplicated-store pair outside the program")
					}
					o.DupPair = c
				}
			}
		}
	}
}
