package ir

import (
	"fmt"
	"slices"
	"strings"
)

// VerifyError is one violated IR invariant, locating the offending
// function, block and instruction.
type VerifyError struct {
	Func  string
	Block int // block ID, -1 when not block-specific
	Inst  int // instruction index within the block, -1 when not specific
	Msg   string
}

func (e *VerifyError) Error() string {
	loc := e.Func
	if e.Block >= 0 {
		loc += fmt.Sprintf("/B%d", e.Block)
		if e.Inst >= 0 {
			loc += fmt.Sprintf("/%d", e.Inst)
		}
	}
	return fmt.Sprintf("ir.Verify: %s: %s", loc, e.Msg)
}

// VerifyErrors aggregates every invariant violation found in one module or
// function, so a broken pass surfaces all of its damage at once.
type VerifyErrors []*VerifyError

func (es VerifyErrors) Error() string {
	if len(es) == 1 {
		return es[0].Error()
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "ir.Verify: %d violations:", len(es))
	for _, e := range es {
		sb.WriteString("\n  ")
		sb.WriteString(e.Error())
	}
	return sb.String()
}

// Verify checks the module invariants that every pass must preserve:
//
//   - Structure: every reachable block is non-empty and ends with exactly
//     one terminator; terminators appear only in the last position.
//   - Control flow: branch and jump targets are blocks of the same
//     function (no dangling block references), and any recorded
//     Succs/Preds edges agree with the terminators.
//   - Registers: every register mentioned lies in [0, NumVRegs); value
//     operands are well-kinded; frame operands name existing slots.
//   - Memory: loads and stores carry a power-of-two width in 1..8, loads
//     define a destination, and address bases are present.
//   - Def-before-use: on every path from entry, a virtual register is
//     assigned before it is read (parameters are defined on entry).
//
// Blocks unreachable from the entry are skipped: a pass is entitled to
// leave them stale until the next ComputeCFG prunes them.
//
// Verify never mutates the module; it returns nil or a VerifyErrors.
func Verify(m *Module) error {
	var errs VerifyErrors
	for _, f := range m.Funcs {
		if err := VerifyFunc(f); err != nil {
			errs = append(errs, err.(VerifyErrors)...)
		}
	}
	if len(errs) == 0 {
		return nil
	}
	return errs
}

// VerifyFunc checks one function (see Verify). Returns nil or VerifyErrors.
//
// Blocks are addressed by their position in f.Blocks, found through a
// block-ID table built per call, so every per-block fact lives in a slice
// and the whole check takes a fixed handful of allocations whatever the
// function's size or the number of dataflow iterations.
func VerifyFunc(f *Func) error {
	v := verifier{f: f}
	v.structure()
	if len(v.errs) == 0 {
		// Dataflow assumes structurally sound blocks.
		v.defBeforeUse()
	}
	if len(v.errs) == 0 {
		return nil
	}
	return v.errs
}

type verifier struct {
	f    *Func
	errs VerifyErrors

	// pos maps a block ID to the block's position in f.Blocks (-1: none).
	// It is nil when the IDs are not distinct values in [0, nblocks) —
	// only hand-built IR does that — and index then scans f.Blocks.
	pos []int32
	// reach and registered are indexed by position. reach marks blocks
	// reachable from the entry along terminator targets; registered marks
	// blocks whose recorded Succs have the implied length (checkEdges).
	reach, registered []bool
	// The implied CFG: edges p->s from every reachable p whose terminator
	// targets all lie in f. succ[2p] and succ[2p+1] hold p's implied
	// successors (-1: none); the implied predecessors of the block at
	// position s are preds[predOff[s]:predOff[s+1]], in source order.
	succ, predOff, preds []int32
	// want and got are zeroed per-position edge counters (checkEdges).
	want, got []int32
}

// index returns b's position in f.Blocks, or -1 when b is not one of f's
// blocks. Membership is pointer identity; the ID only finds the candidate.
func (v *verifier) index(b *Block) int {
	if b == nil {
		return -1
	}
	if v.pos == nil {
		for i, x := range v.f.Blocks {
			if x == b {
				return i
			}
		}
		return -1
	}
	if b.ID >= 0 && b.ID < len(v.pos) {
		if i := v.pos[b.ID]; i >= 0 && v.f.Blocks[i] == b {
			return int(i)
		}
	}
	return -1
}

// implied returns the positions of the successors b's terminator implies:
// both arms of a branch, or a jump's target, when every target is a block
// of f; none otherwise.
func (v *verifier) implied(b *Block) (s0, s1 int32) {
	s0, s1 = -1, -1
	t := b.Term()
	if t == nil {
		return
	}
	switch t.Op {
	case OpBr:
		if th, el := v.index(t.Then), v.index(t.Else); th >= 0 && el >= 0 {
			s0, s1 = int32(th), int32(el)
		}
	case OpJmp:
		s0 = int32(v.index(t.To))
	}
	return
}

// succs returns the implied successors of the block at position j.
func (v *verifier) succs(j int) []int32 {
	s := v.succ[2*j : 2*j+2]
	switch {
	case s[0] < 0:
		return s[:0]
	case s[1] < 0:
		return s[:1]
	}
	return s
}

// computeReach walks the terminator-implied graph from the entry block.
// Targets outside f.Blocks are not followed (they are reported as dangling
// references by the structure pass).
func (v *verifier) computeReach(stack []int32) {
	v.reach[0] = true
	stack = append(stack, 0)
	push := func(b *Block) {
		if i := v.index(b); i >= 0 && !v.reach[i] {
			v.reach[i] = true
			stack = append(stack, int32(i))
		}
	}
	for len(stack) > 0 {
		b := v.f.Blocks[stack[len(stack)-1]]
		stack = stack[:len(stack)-1]
		if t := b.Term(); t != nil {
			switch t.Op {
			case OpBr:
				push(t.Then)
				push(t.Else)
			case OpJmp:
				push(t.To)
			}
		}
	}
}

// computePreds records every reachable block's implied successors and
// builds their transpose (predOff/preds) by counting: in-degrees first,
// then a fill in source-position order.
func (v *verifier) computePreds() {
	off := v.predOff
	for j, b := range v.f.Blocks {
		v.succ[2*j], v.succ[2*j+1] = -1, -1
		if v.reach[j] {
			v.succ[2*j], v.succ[2*j+1] = v.implied(b)
			for _, t := range v.succs(j) {
				off[t+1]++
			}
		}
	}
	for j := 1; j < len(off); j++ {
		off[j] += off[j-1]
	}
	for j := range v.f.Blocks {
		for _, t := range v.succs(j) {
			v.preds[off[t]] = int32(j)
			off[t]++
		}
	}
	// Each off[t] now holds the end of t's run, i.e. the start of t+1's.
	copy(off[1:], off)
	off[0] = 0
}

func (v *verifier) failf(b *Block, inst int, format string, args ...any) {
	id := -1
	if b != nil {
		id = b.ID
	}
	v.errs = append(v.errs, &VerifyError{
		Func: v.f.Name, Block: id, Inst: inst, Msg: fmt.Sprintf(format, args...),
	})
}

func (v *verifier) structure() {
	f := v.f
	if len(f.Blocks) == 0 {
		v.failf(nil, -1, "function has no blocks")
		return
	}
	if f.NParams > f.nvregs {
		v.failf(nil, -1, "NParams %d exceeds NumVRegs %d", f.NParams, f.nvregs)
	}
	// One slab for the position-indexed integers: pos, succ, predOff,
	// preds (at most two per block), want, got and the reachability stack.
	n := len(f.Blocks)
	ints := make([]int32, f.nblocks+2*n+(n+1)+2*n+2*n+n)
	v.pos, ints = ints[:f.nblocks], ints[f.nblocks:]
	v.succ, ints = ints[:2*n], ints[2*n:]
	v.predOff, ints = ints[:n+1], ints[n+1:]
	v.preds, ints = ints[:2*n], ints[2*n:]
	v.want, v.got, ints = ints[:n], ints[n:2*n], ints[2*n:]
	flags := make([]bool, 2*n)
	v.reach, v.registered = flags[:n], flags[n:]
	for i := range v.pos {
		v.pos[i] = -1
	}
	for i, b := range f.Blocks {
		if b == nil {
			v.failf(nil, -1, "nil block in block list")
			return
		}
		if v.pos == nil {
			continue
		}
		if b.ID < 0 || b.ID >= len(v.pos) || v.pos[b.ID] >= 0 {
			v.pos = nil
			continue
		}
		v.pos[b.ID] = int32(i)
	}
	v.computeReach(ints[:0])
	v.computePreds()
	hasEdges := false
	for j, b := range f.Blocks {
		if !v.reach[j] {
			continue
		}
		if len(b.Succs) > 0 || len(b.Preds) > 0 {
			hasEdges = true
		}
		if len(b.Insts) == 0 {
			v.failf(b, -1, "empty block (missing terminator)")
			continue
		}
		for i, in := range b.Insts {
			if in == nil {
				v.failf(b, i, "nil instruction")
				continue
			}
			if in.IsTerminator() && i != len(b.Insts)-1 {
				v.failf(b, i, "terminator %s not at end of block", in.Op)
			}
			v.checkInstr(b, i, in)
		}
		if t := b.Insts[len(b.Insts)-1]; !t.IsTerminator() {
			v.failf(b, len(b.Insts)-1, "block does not end in a terminator (last op %s)", t.Op)
		}
	}
	if hasEdges {
		v.checkEdges()
	}
}

// checkInstr validates one instruction's operands and shape.
func (v *verifier) checkInstr(b *Block, i int, in *Instr) {
	v.checkOperand(b, i, &in.A, "A", -1)
	v.checkOperand(b, i, &in.B, "B", -1)
	if in.Dst != NoVReg && !v.validReg(in.Dst) {
		v.failf(b, i, "destination v%d out of range [0,%d)", in.Dst, v.f.nvregs)
	}
	switch in.Op {
	case OpLoad, OpStore:
		switch in.Width {
		case 1, 2, 4, 8:
		default:
			v.failf(b, i, "memory access width %d (want 1, 2, 4 or 8)", in.Width)
		}
		if in.Base.Kind == OpndNone {
			v.failf(b, i, "memory access with no base operand")
		}
		v.checkOperand(b, i, &in.Base, "Base", -1)
		if in.Index != NoVReg && !v.validReg(in.Index) {
			v.failf(b, i, "index v%d out of range [0,%d)", in.Index, v.f.nvregs)
		}
		if in.Op == OpLoad && in.Dst == NoVReg {
			v.failf(b, i, "load with no destination")
		}
	case OpCall:
		if in.Callee == "" {
			v.failf(b, i, "call with empty callee")
		}
		for k := range in.Args {
			v.checkOperand(b, i, &in.Args[k], "arg", k)
		}
	case OpBr:
		if in.Then == nil || in.Else == nil {
			v.failf(b, i, "branch with nil target")
		} else {
			if v.index(in.Then) < 0 {
				v.failf(b, i, "branch Then targets block B%d not in function", in.Then.ID)
			}
			if v.index(in.Else) < 0 {
				v.failf(b, i, "branch Else targets block B%d not in function", in.Else.ID)
			}
		}
	case OpJmp:
		if in.To == nil {
			v.failf(b, i, "jump with nil target")
		} else if v.index(in.To) < 0 {
			v.failf(b, i, "jump targets block B%d not in function", in.To.ID)
		}
	case OpCopy:
		if in.Dst == NoVReg {
			v.failf(b, i, "copy with no destination")
		}
		if in.A.Kind == OpndNone {
			v.failf(b, i, "copy with no source operand")
		}
	default:
		if in.Op.IsBinary() && in.Dst == NoVReg {
			v.failf(b, i, "%s with no destination", in.Op)
		}
	}
}

func (v *verifier) validReg(r VReg) bool { return r >= 0 && int(r) < v.f.nvregs }

// operandOK reports whether o is well-kinded and in range.
func (v *verifier) operandOK(o *Operand) bool {
	switch o.Kind {
	case OpndNone, OpndConst, OpndSym:
		return true
	case OpndReg:
		return v.validReg(o.Reg)
	case OpndFrame:
		return o.Slot >= 0 && o.Slot < len(v.f.Slots)
	}
	return false
}

// checkOperand reports a malformed operand. what names the field; a call
// argument (arg >= 0) is named "arg N", formatted only on a violation.
func (v *verifier) checkOperand(b *Block, i int, o *Operand, what string, arg int) {
	if v.operandOK(o) {
		return
	}
	if arg >= 0 {
		what = fmt.Sprintf("%s %d", what, arg)
	}
	switch o.Kind {
	case OpndReg:
		v.failf(b, i, "operand %s: v%d out of range [0,%d)", what, o.Reg, v.f.nvregs)
	case OpndFrame:
		v.failf(b, i, "operand %s: frame slot %d out of range [0,%d)", what, o.Slot, len(v.f.Slots))
	default:
		v.failf(b, i, "operand %s: unknown kind %d", what, o.Kind)
	}
}

// checkEdges verifies that the recorded CFG adjacency (when present) agrees
// with what the terminators imply, and that Preds is the exact transpose of
// Succs. Only edges between reachable blocks are considered.
func (v *verifier) checkEdges() {
	f := v.f
	for j, b := range f.Blocks {
		if !v.reach[j] {
			continue
		}
		want := v.succs(j)
		if len(b.Succs) != len(want) {
			v.failf(b, -1, "recorded %d successors, terminator implies %d", len(b.Succs), len(want))
			continue
		}
		for i, t := range want {
			if b.Succs[i] != f.Blocks[t] {
				v.failf(b, -1, "successor %d is B%d, terminator implies B%d",
					i, b.Succs[i].ID, f.Blocks[t].ID)
			}
		}
		v.registered[j] = true
	}
	for j, b := range f.Blocks {
		if !v.reach[j] {
			continue
		}
		for _, p := range b.Preds {
			if v.index(p) < 0 {
				v.failf(b, -1, "predecessor B%d not in function", p.ID)
			}
		}
	}
	// Count, per target block, the implied edges from each registered
	// source (want) against the recorded Preds entries from each reachable
	// source (got). Disagreements are reported in one sweep over the
	// blocks and spurious predecessors in a second.
	for sweep := 0; sweep < 2; sweep++ {
		for j, b := range f.Blocks {
			implied := v.preds[v.predOff[j]:v.predOff[j+1]]
			if !v.reach[j] || v.predsMatch(b, implied) {
				continue
			}
			for _, i := range implied {
				if v.registered[i] {
					v.want[i]++
				}
			}
			for _, p := range b.Preds {
				if i := v.index(p); i >= 0 && v.reach[i] {
					v.got[i]++
				}
			}
			if sweep == 0 {
				for _, i := range implied {
					if w, g := v.want[i], v.got[i]; w > 0 && w != g {
						v.failf(b, -1, "predecessor list disagrees with edges from B%d (%d recorded, %d implied)",
							f.Blocks[i].ID, g, w)
						v.want[i] = g // once per source
					}
				}
			} else {
				for _, p := range b.Preds {
					if i := v.index(p); i >= 0 && v.want[i] == 0 && v.got[i] > 0 {
						v.failf(b, -1, "spurious predecessor B%d (%d recorded, no such edge)", p.ID, v.got[i])
						v.got[i] = 0 // once per source
					}
				}
			}
			for _, i := range implied {
				v.want[i], v.got[i] = 0, 0
			}
			for _, p := range b.Preds {
				if i := v.index(p); i >= 0 {
					v.want[i], v.got[i] = 0, 0
				}
			}
		}
	}
}

// predsMatch reports whether b's recorded Preds are exactly its implied
// predecessors, in order and all registered — the state ComputeCFG leaves
// behind — so that no edge count into b can disagree.
func (v *verifier) predsMatch(b *Block, implied []int32) bool {
	if len(b.Preds) != len(implied) {
		return false
	}
	for k, i := range implied {
		if b.Preds[k] != v.f.Blocks[i] || !v.registered[i] {
			return false
		}
	}
	return true
}

// defBeforeUse runs a forward "definitely assigned" dataflow over the CFG
// implied by the terminators and reports any register read on a path before
// any assignment. Parameters are defined on entry. Unreachable blocks are
// skipped: passes are entitled to leave them stale until the next
// ComputeCFG prunes them.
//
// The sets are rows of one flat bitset: in[j] is the set assigned on entry
// to the block at position j and gen[j] the set it assigns, so a block's
// exit set is in|gen and needs no storage of its own.
func (v *verifier) defBeforeUse() {
	f := v.f
	if f.nvregs == 0 {
		return
	}
	w := (f.nvregs + 63) / 64
	n := len(f.Blocks)
	bits := make([]uint64, (2*n+1)*w)
	in := func(j int) []uint64 { return bits[j*w : (j+1)*w] }
	gen := func(j int) []uint64 { return in(n + j) }
	cur := in(2 * n) // scratch row

	get := func(s []uint64, r VReg) bool { return s[r>>6]&(1<<(uint(r)&63)) != 0 }
	set := func(s []uint64, r VReg) { s[r>>6] |= 1 << (uint(r) & 63) }

	// The entry gets the parameters; every other reachable block starts at
	// "all defined" (top) so the intersection converges downward.
	for p := 0; p < f.NParams; p++ {
		set(in(0), VReg(p))
	}
	for j, b := range f.Blocks {
		if !v.reach[j] {
			continue
		}
		if j != 0 {
			for k := range in(j) {
				in(j)[k] = ^uint64(0)
			}
		}
		g := gen(j)
		for _, inst := range b.Insts {
			if inst.Dst != NoVReg && v.validReg(inst.Dst) {
				set(g, inst.Dst)
			}
		}
	}

	for changed := true; changed; {
		changed = false
		for j := 1; j < n; j++ {
			if !v.reach[j] {
				continue
			}
			for k := range cur {
				cur[k] = ^uint64(0)
			}
			for _, p := range v.preds[v.predOff[j]:v.predOff[j+1]] {
				pin, pgen := in(int(p)), gen(int(p))
				for k := range cur {
					cur[k] &= pin[k] | pgen[k]
				}
			}
			if dst := in(j); !slices.Equal(cur, dst) {
				copy(dst, cur)
				changed = true
			}
		}
	}

	scratch := make([]VReg, 0, 8)
	for j, b := range f.Blocks {
		if !v.reach[j] {
			continue
		}
		defined := cur
		copy(defined, in(j))
		for i, inst := range b.Insts {
			scratch = inst.Uses(scratch[:0])
			for _, u := range scratch {
				if !v.validReg(u) {
					continue // already reported by structure pass
				}
				if !get(defined, u) {
					v.failf(b, i, "v%d used before definition (%s)", u, inst)
				}
			}
			if inst.Dst != NoVReg && v.validReg(inst.Dst) {
				set(defined, inst.Dst)
			}
		}
	}
}
