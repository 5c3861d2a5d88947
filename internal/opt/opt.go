// Package opt implements the classical optimizations the paper lists as
// prerequisites for its load-classification heuristics (Section 4):
// function inlining, local/global constant propagation, local/global copy
// propagation, local/global redundant load elimination, loop-invariant code
// removal, and induction-variable elimination/strength reduction — plus
// dead-code elimination and the addressing-mode folding that exposes the
// ISA's register+offset, register+register and absolute modes.
//
// The heuristics depend on these passes because they promote variables to
// registers and turn array address arithmetic into pointer induction
// variables; without them almost all loads would appear load-dependent and
// the classification would be useless (paper, Section 4).
package opt

import "elag/internal/ir"

// Options selects which passes run when a legacy-style pipeline is built
// from flags (see passman.Legacy). The zero value runs everything. The
// scheduling itself — pass order, the cleanup fixpoint, the
// fold-after-strength-reduction rule — lives in internal/passman; this
// package only provides the individual transformations.
type Options struct {
	// DisableInline skips function inlining.
	DisableInline bool
	// DisableLICM skips loop-invariant code motion.
	DisableLICM bool
	// DisableStrengthReduce skips induction-variable strength reduction.
	DisableStrengthReduce bool
	// DisableRLE skips redundant load elimination.
	DisableRLE bool
	// InlineBudget is the maximum callee size (IR instructions) eligible
	// for inlining. Default 40.
	InlineBudget int
	// Rounds is the maximum number of cleanup iterations. Default 8.
	Rounds int
}

// defCounts returns, indexed by virtual register, how many instructions
// define it (parameters count one definition, at entry) and its unique
// defining instruction when that count is exactly one (nil otherwise).
func defCounts(f *ir.Func) (counts []int32, single []*ir.Instr) {
	counts = make([]int32, f.NumVRegs())
	single = make([]*ir.Instr, f.NumVRegs())
	for _, b := range f.Blocks {
		for _, in := range b.Insts {
			if in.Dst == ir.NoVReg {
				continue
			}
			counts[in.Dst]++
			if counts[in.Dst] == 1 {
				single[in.Dst] = in
			} else {
				single[in.Dst] = nil
			}
		}
	}
	// Parameters are defined at entry.
	for p := 0; p < f.NParams; p++ {
		counts[p]++
		single[p] = nil
	}
	return counts, single
}

func foldBinary(op ir.Op, a, b int64) (int64, bool) {
	switch op {
	case ir.OpAdd:
		return a + b, true
	case ir.OpSub:
		return a - b, true
	case ir.OpMul:
		return a * b, true
	case ir.OpDiv:
		if b == 0 {
			return 0, false
		}
		return a / b, true
	case ir.OpRem:
		if b == 0 {
			return 0, false
		}
		return a % b, true
	case ir.OpAnd:
		return a & b, true
	case ir.OpOr:
		return a | b, true
	case ir.OpXor:
		return a ^ b, true
	case ir.OpSll:
		return a << (uint64(b) & 63), true
	case ir.OpSrl:
		return int64(uint64(a) >> (uint64(b) & 63)), true
	case ir.OpSra:
		return a >> (uint64(b) & 63), true
	}
	return 0, false
}

// ConstProp performs constant folding plus propagation: locally via a
// per-block environment, globally for registers with a single static
// definition. Returns whether anything changed.
func ConstProp(f *ir.Func) bool {
	changed := false
	_, single := defCounts(f)

	// Global: single-def registers whose definition is a constant copy.
	globalConst := make(map[ir.VReg]int64)
	for v, in := range single {
		if in != nil && in.Op == ir.OpCopy {
			if c, ok := in.A.IsConst(); ok {
				globalConst[ir.VReg(v)] = c
			}
		}
	}

	for _, b := range f.Blocks {
		local := make(map[ir.VReg]int64)
		lookup := func(o ir.Operand) ir.Operand {
			if o.Kind != ir.OpndReg {
				return o
			}
			if c, ok := local[o.Reg]; ok {
				return ir.C(c)
			}
			if c, ok := globalConst[o.Reg]; ok {
				return ir.C(c)
			}
			return o
		}
		for _, in := range b.Insts {
			// Substitute known-constant operands.
			for _, p := range []*ir.Operand{&in.A, &in.B, &in.Base} {
				if n := lookup(*p); n != *p {
					*p = n
					changed = true
				}
			}
			if in.Op == ir.OpCall {
				for i := range in.Args {
					if n := lookup(in.Args[i]); n != in.Args[i] {
						in.Args[i] = n
						changed = true
					}
				}
			}
			if in.Index != ir.NoVReg {
				// An index register that became constant folds
				// into the displacement.
				if c, ok := local[in.Index]; ok {
					in.Off += c
					in.Index = ir.NoVReg
					changed = true
				} else if c, ok := globalConst[in.Index]; ok {
					in.Off += c
					in.Index = ir.NoVReg
					changed = true
				}
			}

			// Fold.
			if in.Op.IsBinary() {
				if a, okA := in.A.IsConst(); okA {
					if bv, okB := in.B.IsConst(); okB {
						if v, ok := foldBinary(in.Op, a, bv); ok {
							in.Op = ir.OpCopy
							in.A = ir.C(v)
							in.B = ir.Operand{}
							changed = true
						}
					}
				}
				// Multiply by a power of two becomes a shift
				// (shifts are single-cycle; multiplies are not).
				if in.Op == ir.OpMul {
					if k, ok := in.B.IsConst(); ok && k > 1 && k&(k-1) == 0 {
						sh := int64(0)
						for v := k; v > 1; v >>= 1 {
							sh++
						}
						in.Op = ir.OpSll
						in.B = ir.C(sh)
						changed = true
					}
				}
				// Identity simplifications.
				if bv, ok := in.B.IsConst(); ok && bv == 0 &&
					(in.Op == ir.OpAdd || in.Op == ir.OpSub ||
						in.Op == ir.OpOr || in.Op == ir.OpXor ||
						in.Op == ir.OpSll || in.Op == ir.OpSrl || in.Op == ir.OpSra) {
					in.Op = ir.OpCopy
					in.B = ir.Operand{}
					changed = true
				}
				// &g + c folds into a symbol operand.
				if in.Op == ir.OpAdd {
					if in.A.Kind == ir.OpndSym {
						if c, ok := in.B.IsConst(); ok {
							s := in.A
							s.Imm += c
							in.Op = ir.OpCopy
							in.A = s
							in.B = ir.Operand{}
							changed = true
						}
					} else if in.B.Kind == ir.OpndSym {
						if c, ok := in.A.IsConst(); ok {
							s := in.B
							s.Imm += c
							in.Op = ir.OpCopy
							in.A = s
							in.B = ir.Operand{}
							changed = true
						}
					}
				}
			}
			if in.Op == ir.OpCmp {
				if a, okA := in.A.IsConst(); okA {
					if bv, okB := in.B.IsConst(); okB {
						v := int64(0)
						if in.Cond.Eval(a, bv) {
							v = 1
						}
						in.Op = ir.OpCopy
						in.A = ir.C(v)
						in.B = ir.Operand{}
						changed = true
					}
				}
			}

			// Update the local environment.
			if in.Dst != ir.NoVReg {
				delete(local, in.Dst)
				if in.Op == ir.OpCopy {
					if c, ok := in.A.IsConst(); ok {
						local[in.Dst] = c
					}
				}
			}
		}
		// Fold always-taken / never-taken conditional branches.
		if t := b.Term(); t != nil && t.Op == ir.OpBr {
			if a, okA := t.A.IsConst(); okA {
				if bv, okB := t.B.IsConst(); okB {
					to := t.Else
					if t.Cond.Eval(a, bv) {
						to = t.Then
					}
					t.Op = ir.OpJmp
					t.To = to
					t.A, t.B = ir.Operand{}, ir.Operand{}
					t.Then, t.Else = nil, nil
					changed = true
				}
			}
		}
	}
	if changed {
		f.ComputeCFG()
	}
	return changed
}

// CopyProp propagates register copies: locally through a per-block
// environment, globally for single-definition copy chains.
func CopyProp(f *ir.Func) bool {
	changed := false
	counts, single := defCounts(f)

	// Global: v = copy w, both single-def => uses of v become w.
	globalCopy := make(map[ir.VReg]ir.Operand)
	resolve := func(v ir.VReg) (ir.Operand, bool) {
		seen := 0
		cur := v
		for {
			in := single[cur]
			if in == nil || in.Op != ir.OpCopy {
				break
			}
			o := in.A
			switch o.Kind {
			case ir.OpndConst, ir.OpndSym, ir.OpndFrame:
				return o, true
			case ir.OpndReg:
				if counts[o.Reg] != 1 {
					if cur != v {
						return ir.R(cur), true
					}
					return ir.Operand{}, false
				}
				cur = o.Reg
				seen++
				if seen > 32 {
					return ir.Operand{}, false
				}
				continue
			}
			break
		}
		if cur != v {
			return ir.R(cur), true
		}
		return ir.Operand{}, false
	}
	for v, in := range single {
		if in == nil {
			continue
		}
		if o, ok := resolve(ir.VReg(v)); ok {
			globalCopy[ir.VReg(v)] = o
		}
	}
	var scratch []ir.VReg
	for _, b := range f.Blocks {
		local := make(map[ir.VReg]ir.Operand)
		for _, in := range b.Insts {
			scratch = in.Uses(scratch[:0])
			for _, u := range scratch {
				rep, ok := local[u]
				if !ok {
					rep, ok = globalCopy[u]
				}
				if ok && in.ReplaceUses(u, rep) {
					changed = true
				}
			}
			if in.Dst != ir.NoVReg {
				// Kill environment entries invalidated by this def.
				delete(local, in.Dst)
				for k, o := range local {
					if o.IsReg(in.Dst) {
						delete(local, k)
					}
				}
				if in.Op == ir.OpCopy {
					switch in.A.Kind {
					case ir.OpndReg, ir.OpndConst, ir.OpndSym, ir.OpndFrame:
						if !in.A.IsReg(in.Dst) {
							local[in.Dst] = in.A
						}
					}
				}
			}
		}
	}
	return changed
}

// CoalesceCopies rewrites the front end's "t = op ...; x = copy t" pairs as
// "x = op ..." when t has exactly that one use and one definition and the
// two instructions are adjacent. This is the virtual-register coalescing
// half of the paper's "virtual register allocation" pass: without it every
// assignment costs an extra move, inflating loop bodies and masking load
// stalls.
func CoalesceCopies(f *ir.Func) bool {
	uses := make(map[ir.VReg]int)
	var scratch []ir.VReg
	for _, b := range f.Blocks {
		for _, in := range b.Insts {
			scratch = in.Uses(scratch[:0])
			for _, u := range scratch {
				uses[u]++
			}
		}
	}
	counts, single := defCounts(f)
	changed := false
	for _, b := range f.Blocks {
		kept := b.Insts[:0]
		for _, in := range b.Insts {
			if in.Op == ir.OpCopy && in.A.Kind == ir.OpndReg && len(kept) > 0 {
				t := in.A.Reg
				prev := kept[len(kept)-1]
				if prev.Dst == t && uses[t] == 1 && counts[t] == 1 &&
					single[t] == prev && in.Dst != t &&
					prev.Op != ir.OpCall {
					prev.Dst = in.Dst
					changed = true
					continue
				}
			}
			kept = append(kept, in)
		}
		b.Insts = kept
	}
	return changed
}

// DeadCodeElim removes pure instructions whose results are never used.
func DeadCodeElim(f *ir.Func) bool {
	used := make([]bool, f.NumVRegs())
	var scratch []ir.VReg
	// Transitively mark uses, seeded by side-effecting instructions.
	// Sweeping backwards meets most uses before their definitions, so
	// few sweeps reach the fixpoint.
	for again := true; again; {
		again = false
		for bi := len(f.Blocks) - 1; bi >= 0; bi-- {
			insts := f.Blocks[bi].Insts
			for ii := len(insts) - 1; ii >= 0; ii-- {
				in := insts[ii]
				live := in.HasSideEffects() || in.IsTerminator() ||
					(in.Dst != ir.NoVReg && used[in.Dst]) ||
					in.Op == ir.OpCall
				if !live {
					continue
				}
				scratch = in.Uses(scratch[:0])
				for _, u := range scratch {
					if !used[u] {
						used[u] = true
						again = true
					}
				}
			}
		}
	}
	changed := false
	for _, b := range f.Blocks {
		kept := b.Insts[:0]
		for _, in := range b.Insts {
			dead := !in.HasSideEffects() && !in.IsTerminator() &&
				in.Op != ir.OpCall &&
				(in.Dst == ir.NoVReg || !used[in.Dst])
			if dead && in.Op != ir.OpNop {
				changed = true
				continue
			}
			if in.Op == ir.OpNop {
				changed = true
				continue
			}
			kept = append(kept, in)
		}
		b.Insts = kept
	}
	return changed
}
