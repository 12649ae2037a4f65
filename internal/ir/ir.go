// Package ir defines the mid-level intermediate representation produced
// by the MiniC front-end and consumed by the optimizer, the data
// allocation pass, the register allocator, and the operation-compaction
// pass. It corresponds to the "sequence of unpacked machine operations"
// that the paper's GNU-C front-end hands to the optimizing back-end.
//
// The IR is a conventional three-address form over typed virtual
// registers, organised as a control-flow graph of basic blocks. It is
// not SSA: loop-carried values are expressed by re-assigning registers,
// which matches the list-scheduling and live-range machinery the paper
// describes. Memory operations carry the Symbol they access; this is
// the symbol-level alias information the compaction-based partitioning
// algorithm requires (§2 of the paper).
package ir

import (
	"fmt"

	"dualbank/internal/machine"
)

// Type is the type of a register, symbol element, or operation result.
type Type int8

const (
	// TVoid is the type of value-less operations and void functions.
	TVoid Type = iota
	// TInt is a 32-bit two's-complement integer.
	TInt
	// TFloat is a 32-bit IEEE-754 float.
	TFloat
)

func (t Type) String() string {
	switch t {
	case TVoid:
		return "void"
	case TInt:
		return "int"
	case TFloat:
		return "float"
	}
	return fmt.Sprintf("Type(%d)", int8(t))
}

// Reg names a virtual register. NoReg (zero) means "absent".
// Register types are recorded per-function in Func.RegType.
type Reg int32

// NoReg is the absent register.
const NoReg Reg = 0

func (r Reg) String() string {
	if r == NoReg {
		return "_"
	}
	return fmt.Sprintf("v%d", int32(r))
}

// SymKind classifies a Symbol.
type SymKind int8

const (
	// SymGlobal is a global scalar or array, allocated at a fixed bank
	// address.
	SymGlobal SymKind = iota
	// SymLocal is a function-local scalar or array, allocated at a
	// frame offset on one of the two program stacks.
	SymLocal
	// SymSpill is a compiler-introduced stack slot created by the
	// register allocator. Spill slots participate in data partitioning
	// like any other local.
	SymSpill
)

func (k SymKind) String() string {
	switch k {
	case SymGlobal:
		return "global"
	case SymLocal:
		return "local"
	case SymSpill:
		return "spill"
	}
	return fmt.Sprintf("SymKind(%d)", int8(k))
}

// Symbol is a program variable or array: the unit of data allocation.
// The partitioning algorithm treats each array as a monolithic entity
// assigned in its entirety to a single memory bank (§3), or to both
// banks when duplicated (§3.2).
type Symbol struct {
	Name string
	Kind SymKind
	// Elem is the element type; Size is the total size in 32-bit words.
	// For a scalar Size is 1; for int a[R][C] it is R*C.
	Elem Type
	Size int
	// Dims holds array dimensions ([]=scalar, [N]=1-D, [R C]=2-D).
	Dims []int
	// Init holds initial contents for globals, as raw 32-bit words
	// (floats via math.Float32bits). len(Init) <= Size; the remainder
	// is zero-filled.
	Init []uint32

	// ReadOnly marks globals never stored to; duplication of such
	// symbols needs no coherence stores.
	ReadOnly bool

	// Save marks a callee-save slot. The paper assigns successive
	// save/restore operations to alternating memory banks mechanically,
	// outside the interference-graph partitioning (§3.1).
	Save bool

	// Allocation results, filled by the data allocation pass.
	//
	// Bank is the assigned memory bank (BankBoth when duplicated).
	// Addr is the word address within the bank for globals and spill
	// or frame slots' offset from the frame base for locals.
	Bank       machine.Bank
	Addr       int
	Duplicated bool
}

func (s *Symbol) String() string { return s.Name }

// IsArray reports whether the symbol has array dimensions.
func (s *Symbol) IsArray() bool { return len(s.Dims) > 0 }

// Block is a basic block: a maximal straight-line sequence of
// operations ending in an explicit terminator (Br, CondBr, or Ret).
type Block struct {
	ID  int
	Ops []*Op
	// Succs and Preds are the CFG edges. CondBr order: [true, false].
	Succs []*Block
	Preds []*Block
	// LoopDepth is the syntactic loop-nesting depth (0 = outside any
	// loop). The static edge-weight heuristic uses LoopDepth+1.
	LoopDepth int
	// ExecCount is the number of times the block ran in a profiling
	// run; used by the profile-driven weight policy (Pr in Figure 8).
	ExecCount int64
}

func (b *Block) String() string { return fmt.Sprintf("b%d", b.ID) }

// Terminator returns the block's final operation, or nil if the block
// is empty.
func (b *Block) Terminator() *Op {
	if len(b.Ops) == 0 {
		return nil
	}
	return b.Ops[len(b.Ops)-1]
}

// Func is a single function.
type Func struct {
	Name    string
	Params  []*Symbol // scalar parameters; values arrive in registers
	RetType Type
	Locals  []*Symbol // locals, spill slots appended by regalloc
	Blocks  []*Block  // Blocks[0] is the entry block

	// ParamRegs[i] is the virtual register holding Params[i] on entry.
	ParamRegs []Reg

	// regType[r] is the type of virtual register r (index 0 unused).
	regType []Type
	// phys records whether registers have been mapped to the physical
	// files.
	phys bool

	// SavedRegs is the number of callee-saved register save/restore
	// pairs the prologue/epilogue performs; the allocation pass assigns
	// successive save/restore operations to alternating banks (§3.1).
	SavedRegs int
}

// NewFunc returns an empty function with the given signature.
func NewFunc(name string, ret Type) *Func {
	return &Func{Name: name, RetType: ret, regType: make([]Type, 1)}
}

// NewReg allocates a fresh virtual register of type t.
func (f *Func) NewReg(t Type) Reg {
	if t == TVoid {
		panic("ir: NewReg(TVoid)")
	}
	f.regType = append(f.regType, t)
	return Reg(len(f.regType) - 1)
}

// RegType returns the type of virtual register r.
func (f *Func) RegType(r Reg) Type {
	if r == NoReg {
		return TVoid
	}
	return f.regType[r]
}

// NumRegs returns the number of virtual registers allocated (including
// the unused register 0).
func (f *Func) NumRegs() int { return len(f.regType) }

// Phys reports whether the function has been rewritten to physical
// registers.
func (f *Func) Phys() bool { return f.phys }

// SetPhysRegTable switches the function's register table to the
// physical convention used after register allocation: Reg(1..32) are
// the integer file r1..r32 and Reg(33..64) are the floating-point file
// f1..f32. Reg(1) and Reg(33) are the scalar return registers.
func (f *Func) SetPhysRegTable() {
	f.regType = make([]Type, 65)
	for i := 1; i <= 32; i++ {
		f.regType[i] = TInt
	}
	for i := 33; i <= 64; i++ {
		f.regType[i] = TFloat
	}
	f.phys = true
}

// PhysInt returns the physical register for integer file entry n
// (1-based).
func PhysInt(n int) Reg { return Reg(n) }

// PhysFloat returns the physical register for float file entry n
// (1-based).
func PhysFloat(n int) Reg { return Reg(32 + n) }

// RetInt and RetFloat are the scalar return registers of the calling
// convention.
var (
	RetInt   = PhysInt(1)
	RetFloat = PhysFloat(1)
)

// NewBlock appends a fresh empty block to the function.
func (f *Func) NewBlock() *Block {
	b := &Block{ID: len(f.Blocks)}
	f.Blocks = append(f.Blocks, b)
	return b
}

// Entry returns the function's entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// Program is a whole compiled program.
type Program struct {
	Name    string
	Globals []*Symbol
	Funcs   []*Func

	funcByName map[string]*Func
}

// Func returns the function with the given name, or nil.
func (p *Program) Func(name string) *Func {
	if p.funcByName == nil {
		p.funcByName = make(map[string]*Func, len(p.Funcs))
		for _, f := range p.Funcs {
			p.funcByName[f.Name] = f
		}
	}
	return p.funcByName[name]
}

// AddFunc appends f to the program.
func (p *Program) AddFunc(f *Func) {
	p.Funcs = append(p.Funcs, f)
	if p.funcByName != nil {
		p.funcByName[f.Name] = f
	}
}

// Symbols returns every data symbol in the program: all globals plus
// every function's locals (including spill slots). This is the node set
// of the interference graph.
func (p *Program) Symbols() []*Symbol {
	var out []*Symbol
	out = append(out, p.Globals...)
	for _, f := range p.Funcs {
		out = append(out, f.Locals...)
	}
	return out
}
