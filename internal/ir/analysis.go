package ir

import "slices"

// This file implements the CFG analyses used by the optimizer and the load
// classifier: dominators (iterative Cooper-Harvey-Kennedy), natural loop
// detection from back edges, and virtual-register liveness.

// Dominators records each block's immediate dominator. The entry block's
// immediate dominator is itself. Blocks are addressed by the positions
// ComputeCFG numbered them with; a block not in the function when the tree
// was computed has no dominator and dominates only itself.
type Dominators struct {
	blocks []*Block // f.Blocks as numbered when the tree was computed
	idom   []int32  // by position; -1 for blocks unreachable from the entry
}

// pos returns b's position in the numbered block list, or -1.
func (d *Dominators) pos(b *Block) int {
	if b != nil && b.seqNum < len(d.blocks) && d.blocks[b.seqNum] == b {
		return b.seqNum
	}
	return -1
}

// Idom returns b's immediate dominator (the entry maps to itself).
func (d *Dominators) Idom(b *Block) *Block {
	if i := d.pos(b); i >= 0 && d.idom[i] >= 0 {
		return d.blocks[d.idom[i]]
	}
	return nil
}

// Dominates reports whether a dominates b (reflexively).
func (d *Dominators) Dominates(a, b *Block) bool {
	if a == b {
		return true
	}
	ai, i := d.pos(a), d.pos(b)
	for i >= 0 {
		up := int(d.idom[i])
		if up < 0 || up == i {
			return false
		}
		if up == ai {
			return true
		}
		i = up
	}
	return false
}

// ComputeDominators computes the dominator tree of f. ComputeCFG must have
// been called first: the analysis walks Succs and Preds and indexes blocks
// by the positions it assigned.
func ComputeDominators(f *Func) *Dominators {
	n := len(f.Blocks)
	d := &Dominators{blocks: append([]*Block(nil), f.Blocks...), idom: make([]int32, n)}
	if n == 0 {
		return d
	}
	for i := range d.idom {
		d.idom[i] = -1
	}
	// Reverse postorder; order[i] is position i's index in it.
	rpo := make([]int32, 0, n)
	order := make([]int32, n)
	var dfs func(i int)
	dfs = func(i int) {
		order[i] = 1 // visited
		for _, s := range d.blocks[i].Succs {
			if j := d.pos(s); j >= 0 && order[j] == 0 {
				dfs(j)
			}
		}
		rpo = append(rpo, int32(i))
	}
	dfs(0)
	slices.Reverse(rpo)
	for k, i := range rpo {
		order[i] = int32(k)
	}

	idom := d.idom
	idom[0] = 0
	intersect := func(a, b int32) int32 {
		for a != b {
			for order[a] > order[b] {
				a = idom[a]
			}
			for order[b] > order[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, i := range rpo[1:] {
			newIdom := int32(-1)
			for _, p := range d.blocks[i].Preds {
				j := d.pos(p)
				if j < 0 || idom[j] < 0 {
					continue
				}
				if newIdom < 0 {
					newIdom = int32(j)
				} else {
					newIdom = intersect(newIdom, int32(j))
				}
			}
			if newIdom >= 0 && idom[i] != newIdom {
				idom[i] = newIdom
				changed = true
			}
		}
	}
	return d
}

// Loop is a natural loop.
type Loop struct {
	// Header is the loop's entry block (target of its back edges).
	Header *Block
	// Blocks is the loop body, including the header.
	Blocks []*Block
	// Parent is the innermost enclosing loop, or nil.
	Parent *Loop
	// Children are the loops immediately nested inside this one.
	Children []*Loop
	// Depth is the nesting depth (outermost loops have depth 1).
	Depth int
}

// Contains reports whether b belongs to the loop body.
func (l *Loop) Contains(b *Block) bool { return slices.Contains(l.Blocks, b) }

// FindLoops detects the natural loops of f and returns them sorted
// innermost-first (deepest nesting depth first), the order in which the
// paper's cyclic heuristics analyze them. dom must be f's current
// dominator tree; loop bodies are bitsets over its block positions.
func FindLoops(f *Func, dom *Dominators) []*Loop {
	var loops []*Loop
	var bodies [][]uint64 // bodies[k] is loops[k]'s block set
	words := (len(dom.blocks) + 63) / 64
	has := func(set []uint64, i int) bool { return set[i>>6]&(1<<(uint(i)&63)) != 0 }
	byHeader := make([]int32, len(dom.blocks)) // position -> loop index + 1
	var stack []*Block
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			if !dom.Dominates(s, b) {
				continue // not a back edge
			}
			h := dom.pos(s)
			if h < 0 {
				continue // s was not numbered by ComputeCFG
			}
			if byHeader[h] == 0 {
				body := make([]uint64, words)
				body[h>>6] |= 1 << (uint(h) & 63)
				loops = append(loops, &Loop{Header: s, Blocks: []*Block{s}})
				bodies = append(bodies, body)
				byHeader[h] = int32(len(loops))
			}
			l, body := loops[byHeader[h]-1], bodies[byHeader[h]-1]
			// Collect the body: predecessors reachable backwards
			// from the latch without passing the header.
			stack = append(stack[:0], b)
			for len(stack) > 0 {
				n := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				i := dom.pos(n)
				if i < 0 || has(body, i) {
					continue
				}
				body[i>>6] |= 1 << (uint(i) & 63)
				l.Blocks = append(l.Blocks, n)
				stack = append(stack, n.Preds...)
			}
		}
	}
	// Establish nesting: loop A is nested in B if A's header is in B's
	// body and A != B; the parent is the smallest such B.
	for ai, a := range loops {
		h := dom.pos(a.Header)
		for bi, b := range loops {
			if ai == bi || !has(bodies[bi], h) {
				continue
			}
			if a.Parent == nil || len(b.Blocks) < len(a.Parent.Blocks) {
				a.Parent = b
			}
		}
	}
	for _, l := range loops {
		if l.Parent != nil {
			l.Parent.Children = append(l.Parent.Children, l)
		}
	}
	var depth func(l *Loop) int
	depth = func(l *Loop) int {
		if l.Parent == nil {
			return 1
		}
		return depth(l.Parent) + 1
	}
	for _, l := range loops {
		l.Depth = depth(l)
	}
	// Innermost first.
	for i := 1; i < len(loops); i++ {
		for j := i; j > 0 && loops[j].Depth > loops[j-1].Depth; j-- {
			loops[j], loops[j-1] = loops[j-1], loops[j]
		}
	}
	return loops
}

// LoopDepth returns a map from block to its innermost loop nesting depth
// (0 for blocks outside all loops).
func LoopDepth(loops []*Loop) map[*Block]int {
	d := make(map[*Block]int)
	for _, l := range loops {
		for _, b := range l.Blocks {
			if l.Depth > d[b] {
				d[b] = l.Depth
			}
		}
	}
	return d
}

// Liveness holds per-block live-in/live-out virtual register sets.
type Liveness struct {
	In, Out map[*Block]map[VReg]bool
}

// ComputeLiveness runs the standard backward iterative dataflow analysis.
func ComputeLiveness(f *Func) *Liveness {
	lv := &Liveness{
		In:  make(map[*Block]map[VReg]bool, len(f.Blocks)),
		Out: make(map[*Block]map[VReg]bool, len(f.Blocks)),
	}
	use := make(map[*Block]map[VReg]bool, len(f.Blocks))
	def := make(map[*Block]map[VReg]bool, len(f.Blocks))
	var scratch []VReg
	for _, b := range f.Blocks {
		u, d := map[VReg]bool{}, map[VReg]bool{}
		for _, in := range b.Insts {
			scratch = in.Uses(scratch[:0])
			for _, v := range scratch {
				if !d[v] {
					u[v] = true
				}
			}
			if in.Dst != NoVReg {
				d[in.Dst] = true
			}
		}
		use[b], def[b] = u, d
		lv.In[b] = map[VReg]bool{}
		lv.Out[b] = map[VReg]bool{}
	}
	for changed := true; changed; {
		changed = false
		for i := len(f.Blocks) - 1; i >= 0; i-- {
			b := f.Blocks[i]
			out := lv.Out[b]
			for _, s := range b.Succs {
				for v := range lv.In[s] {
					if !out[v] {
						out[v] = true
						changed = true
					}
				}
			}
			in := lv.In[b]
			for v := range use[b] {
				if !in[v] {
					in[v] = true
					changed = true
				}
			}
			for v := range out {
				if !def[b][v] && !in[v] {
					in[v] = true
					changed = true
				}
			}
		}
	}
	return lv
}
