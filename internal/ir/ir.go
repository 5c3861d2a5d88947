// Package ir defines the compiler's intermediate representation: a
// three-address virtual-register code over an explicit control-flow graph,
// together with the standard analyses (dominators, natural loops, liveness)
// that the optimizer (package opt), the register allocator / code generator
// (package codegen), and the paper's load-classification heuristics build
// on. It plays the role the IMPACT compiler's Lcode plays in the paper.
package ir

import (
	"fmt"
	"strings"

	"elag/internal/isa"
)

// VReg names a virtual register. Virtual registers 0..NParams-1 of a Func
// hold its incoming parameters.
type VReg int32

// NoVReg marks an absent register operand.
const NoVReg VReg = -1

// OperandKind discriminates Operand.
type OperandKind uint8

// Operand kinds.
const (
	// OpndNone is the zero Operand, meaning "absent".
	OpndNone OperandKind = iota
	// OpndReg is a virtual register.
	OpndReg
	// OpndConst is an integer constant (Imm).
	OpndConst
	// OpndSym is the address of the global Sym plus Imm.
	OpndSym
	// OpndFrame is the address of stack slot Slot plus Imm.
	OpndFrame
)

// Operand is a data operand: a virtual register, constant, global address,
// or stack-slot address.
type Operand struct {
	Kind OperandKind
	Reg  VReg
	Imm  int64
	Sym  string
	Slot int
}

// R returns a register operand.
func R(v VReg) Operand { return Operand{Kind: OpndReg, Reg: v} }

// C returns a constant operand.
func C(imm int64) Operand { return Operand{Kind: OpndConst, Imm: imm} }

// S returns a global-address operand (the address of sym plus off).
func S(sym string, off int64) Operand { return Operand{Kind: OpndSym, Sym: sym, Imm: off} }

// F returns a stack-slot-address operand.
func F(slot int, off int64) Operand { return Operand{Kind: OpndFrame, Slot: slot, Imm: off} }

// IsReg reports whether the operand is the virtual register v.
func (o Operand) IsReg(v VReg) bool { return o.Kind == OpndReg && o.Reg == v }

// IsConst reports whether the operand is a constant, returning its value.
func (o Operand) IsConst() (int64, bool) {
	if o.Kind == OpndConst {
		return o.Imm, true
	}
	return 0, false
}

func (o Operand) String() string {
	switch o.Kind {
	case OpndNone:
		return "_"
	case OpndReg:
		return fmt.Sprintf("v%d", o.Reg)
	case OpndConst:
		return fmt.Sprintf("%d", o.Imm)
	case OpndSym:
		if o.Imm != 0 {
			return fmt.Sprintf("&%s+%d", o.Sym, o.Imm)
		}
		return "&" + o.Sym
	case OpndFrame:
		return fmt.Sprintf("&slot%d+%d", o.Slot, o.Imm)
	}
	return "?"
}

// Op is an IR operation.
type Op uint8

// IR operations.
const (
	OpNop Op = iota
	// OpCopy: Dst = A.
	OpCopy
	// Binary arithmetic: Dst = A op B.
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpSll
	OpSrl
	OpSra
	// OpCmp: Dst = Cond(A, B) ? 1 : 0.
	OpCmp
	// OpLoad: Dst = Mem[addr] where addr = Base + Off (+ Index if set).
	OpLoad
	// OpStore: Mem[addr] = A.
	OpStore
	// OpCall: Dst (optional) = Callee(Args...).
	OpCall
	// OpRet returns A (which may be absent).
	OpRet
	// OpBr branches to Then if Cond(A, B), else to Else. Terminator.
	OpBr
	// OpJmp jumps to To. Terminator.
	OpJmp
	// OpHalt ends the program with exit code A (top-level main only).
	OpHalt
)

var irOpNames = map[Op]string{
	OpNop: "nop", OpCopy: "copy", OpAdd: "add", OpSub: "sub", OpMul: "mul",
	OpDiv: "div", OpRem: "rem", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpSll: "sll", OpSrl: "srl", OpSra: "sra", OpCmp: "cmp", OpLoad: "load",
	OpStore: "store", OpCall: "call", OpRet: "ret", OpBr: "br",
	OpJmp: "jmp", OpHalt: "halt",
}

func (o Op) String() string { return irOpNames[o] }

// IsBinary reports whether the op is a two-operand arithmetic operation.
func (o Op) IsBinary() bool { return o >= OpAdd && o <= OpSra }

// Instr is one IR instruction.
type Instr struct {
	Op   Op
	Cond isa.Cond // OpCmp, OpBr
	Dst  VReg     // NoVReg if no result
	A, B Operand

	// Memory operations.
	Base   Operand // OpLoad/OpStore: base address (reg, sym or frame)
	Off    int64   // constant displacement
	Index  VReg    // optional index register (NoVReg if none)
	Width  uint8   // access width in bytes
	Signed bool

	// OpCall.
	Callee string
	Args   []Operand

	// Terminators.
	Then, Else *Block // OpBr
	To         *Block // OpJmp
}

// NewInstr returns an Instr with register fields initialized to "absent".
func NewInstr(op Op) *Instr { return &Instr{Op: op, Dst: NoVReg, Index: NoVReg} }

// IsTerminator reports whether the instruction ends a basic block.
func (i *Instr) IsTerminator() bool {
	switch i.Op {
	case OpBr, OpJmp, OpRet, OpHalt:
		return true
	}
	return false
}

// HasSideEffects reports whether the instruction cannot be removed even if
// its result is unused.
func (i *Instr) HasSideEffects() bool {
	switch i.Op {
	case OpStore, OpCall, OpRet, OpBr, OpJmp, OpHalt:
		return true
	case OpDiv, OpRem:
		// May fault on zero divisors; keep unless operands prove safe.
		if v, ok := i.B.IsConst(); ok && v != 0 {
			return false
		}
		return true
	}
	return false
}

// Uses appends every virtual register read by the instruction to dst.
func (i *Instr) Uses(dst []VReg) []VReg {
	if i.A.Kind == OpndReg {
		dst = append(dst, i.A.Reg)
	}
	if i.B.Kind == OpndReg {
		dst = append(dst, i.B.Reg)
	}
	switch i.Op {
	case OpLoad, OpStore:
		if i.Base.Kind == OpndReg {
			dst = append(dst, i.Base.Reg)
		}
		if i.Index != NoVReg {
			dst = append(dst, i.Index)
		}
	case OpCall:
		for k := range i.Args {
			if i.Args[k].Kind == OpndReg {
				dst = append(dst, i.Args[k].Reg)
			}
		}
	}
	return dst
}

// ReplaceUses substitutes register operand uses of v with the operand rep
// and reports whether anything was replaced. Register-only positions
// (Index) are replaced only if rep is a register.
func (i *Instr) ReplaceUses(v VReg, rep Operand) bool {
	changed := false
	sub := func(o *Operand) {
		if o.IsReg(v) {
			*o = rep
			changed = true
		}
	}
	sub(&i.A)
	sub(&i.B)
	switch i.Op {
	case OpLoad, OpStore:
		sub(&i.Base)
		if i.Index == v && rep.Kind == OpndReg {
			i.Index = rep.Reg
			changed = true
		}
	case OpCall:
		for k := range i.Args {
			sub(&i.Args[k])
		}
	}
	return changed
}

func (i *Instr) String() string {
	switch i.Op {
	case OpNop:
		return "nop"
	case OpCopy:
		return fmt.Sprintf("v%d = %s", i.Dst, i.A)
	case OpCmp:
		return fmt.Sprintf("v%d = cmp.%s %s, %s", i.Dst, i.Cond, i.A, i.B)
	case OpLoad:
		return fmt.Sprintf("v%d = load%d %s", i.Dst, i.Width, i.addrString())
	case OpStore:
		return fmt.Sprintf("store%d %s, %s", i.Width, i.A, i.addrString())
	case OpCall:
		args := make([]string, len(i.Args))
		for k, a := range i.Args {
			args[k] = a.String()
		}
		if i.Dst != NoVReg {
			return fmt.Sprintf("v%d = call %s(%s)", i.Dst, i.Callee, strings.Join(args, ", "))
		}
		return fmt.Sprintf("call %s(%s)", i.Callee, strings.Join(args, ", "))
	case OpRet:
		if i.A.Kind == OpndNone {
			return "ret"
		}
		return fmt.Sprintf("ret %s", i.A)
	case OpBr:
		return fmt.Sprintf("br.%s %s, %s -> B%d else B%d", i.Cond, i.A, i.B, i.Then.ID, i.Else.ID)
	case OpJmp:
		return fmt.Sprintf("jmp B%d", i.To.ID)
	case OpHalt:
		return fmt.Sprintf("halt %s", i.A)
	}
	if i.Op.IsBinary() {
		return fmt.Sprintf("v%d = %s %s, %s", i.Dst, i.Op, i.A, i.B)
	}
	return "?"
}

func (i *Instr) addrString() string {
	s := i.Base.String()
	if i.Off != 0 {
		s += fmt.Sprintf("%+d", i.Off)
	}
	if i.Index != NoVReg {
		s += fmt.Sprintf("[v%d]", i.Index)
	}
	return "[" + s + "]"
}

// Block is a basic block: straight-line instructions ending in a terminator.
type Block struct {
	ID     int
	Insts  []*Instr
	Succs  []*Block
	Preds  []*Block
	seqNum int // position in Func.Blocks, maintained by ComputeCFG
}

// Term returns the block's terminator (its last instruction), or nil.
func (b *Block) Term() *Instr {
	if len(b.Insts) == 0 {
		return nil
	}
	t := b.Insts[len(b.Insts)-1]
	if !t.IsTerminator() {
		return nil
	}
	return t
}

// StackSlot is a function-local memory area (array, struct, or spill).
type StackSlot struct {
	Name   string
	Size   int64
	Offset int64 // assigned by codegen; SP-relative
}

// Func is one function in virtual-register form.
type Func struct {
	Name    string
	NParams int // params live in v0..v(NParams-1) on entry
	nvregs  int
	Blocks  []*Block // Blocks[0] is the entry block
	Slots   []StackSlot
	nblocks int
}

// NewFunc returns an empty function with nParams parameter registers.
func NewFunc(name string, nParams int) *Func {
	return &Func{Name: name, NParams: nParams, nvregs: nParams}
}

// NumVRegs returns the number of virtual registers allocated so far.
func (f *Func) NumVRegs() int { return f.nvregs }

// NewVReg allocates a fresh virtual register.
func (f *Func) NewVReg() VReg {
	v := VReg(f.nvregs)
	f.nvregs++
	return v
}

// NewBlock appends a fresh empty block to the function.
func (f *Func) NewBlock() *Block {
	b := &Block{ID: f.nblocks}
	f.nblocks++
	f.Blocks = append(f.Blocks, b)
	return b
}

// NewSlot adds a stack slot of the given size and returns its index.
func (f *Func) NewSlot(name string, size int64) int {
	f.Slots = append(f.Slots, StackSlot{Name: name, Size: size})
	return len(f.Slots) - 1
}

// ComputeCFG (re)derives successor and predecessor edges from terminators
// and prunes blocks unreachable from the entry.
func (f *Func) ComputeCFG() {
	reach := make(map[*Block]bool)
	var walk func(b *Block)
	walk = func(b *Block) {
		if b == nil || reach[b] {
			return
		}
		reach[b] = true
		if t := b.Term(); t != nil {
			switch t.Op {
			case OpBr:
				walk(t.Then)
				walk(t.Else)
			case OpJmp:
				walk(t.To)
			}
		}
	}
	if len(f.Blocks) == 0 {
		return
	}
	walk(f.Blocks[0])
	kept := f.Blocks[:0]
	for _, b := range f.Blocks {
		if reach[b] {
			kept = append(kept, b)
		}
	}
	f.Blocks = kept
	for i, b := range f.Blocks {
		b.seqNum = i
		b.Succs = b.Succs[:0]
		b.Preds = b.Preds[:0]
	}
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil {
			continue
		}
		switch t.Op {
		case OpBr:
			b.Succs = append(b.Succs, t.Then, t.Else)
		case OpJmp:
			b.Succs = append(b.Succs, t.To)
		}
		for _, s := range b.Succs {
			s.Preds = append(s.Preds, b)
		}
	}
}

// String renders the function as readable IR.
func (f *Func) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s (%d params, %d vregs)\n", f.Name, f.NParams, f.nvregs)
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "B%d:", b.ID)
		if len(b.Preds) > 0 {
			sb.WriteString(" ; preds:")
			for _, p := range b.Preds {
				fmt.Fprintf(&sb, " B%d", p.ID)
			}
		}
		sb.WriteByte('\n')
		for _, in := range b.Insts {
			fmt.Fprintf(&sb, "\t%s\n", in)
		}
	}
	return sb.String()
}

// Global is a module-level data object.
type Global struct {
	Name string
	Size int64
	// Init holds the initial image; shorter than Size means
	// zero-filled tail. Nil means all zero.
	Init []byte
	// Addrs lists (offset, symbol) pairs: 8-byte cells initialized with
	// the address of another global.
	Addrs []AddrInit
}

// AddrInit initializes the 8-byte cell at Off with the address of Sym+Add.
type AddrInit struct {
	Off int64
	Sym string
	Add int64
}

// Module is a compilation unit.
type Module struct {
	Funcs   []*Func
	Globals []*Global
}

// Func returns the function with the given name, or nil.
func (m *Module) Func(name string) *Func {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Global returns the global with the given name, or nil.
func (m *Module) Global(name string) *Global {
	for _, g := range m.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}
