package core

import (
	"sort"
	"strings"

	"elag/internal/isa"
)

// This file builds the machine-level control-flow graph the classifier
// analyzes: function extents, basic blocks, dominators, and natural loops
// over assembled programs. The heuristics run after code generation (the
// hardware sees physical base registers), so the classifier cannot reuse
// the virtual-register IR analyses.

// mblock is a machine basic block: instructions [start, end) of the program.
type mblock struct {
	id         int
	start, end int
	succs      []*mblock
	preds      []*mblock
}

// mfunc is the machine CFG of one function.
type mfunc struct {
	name       string
	start, end int
	blocks     []*mblock // blocks[0] is the entry
}

// splitFunctions partitions the program into functions: the entry point and
// every call target begin a function; each function extends to the next
// function start.
func splitFunctions(p *isa.Program) []*mfunc {
	starts := map[int]string{p.Entry: ""}
	for _, in := range p.Insts {
		if in.Op == isa.OpCall {
			starts[in.Target] = ""
		}
	}
	// Several symbols can share a start pc (a function label and its first
	// block's "$B" label): prefer a name without '$', then the lexically
	// smallest, so the choice does not depend on map order.
	for name, pc := range p.Symbols {
		cur, ok := starts[pc]
		if !ok {
			continue
		}
		curBlock, block := strings.Contains(cur, "$"), strings.Contains(name, "$")
		if cur == "" || curBlock && !block || curBlock == block && name < cur {
			starts[pc] = name
		}
	}
	if starts[p.Entry] == "" {
		starts[p.Entry] = "entry"
	}
	pcs := make([]int, 0, len(starts))
	for pc := range starts {
		if pc >= 0 && pc < len(p.Insts) {
			pcs = append(pcs, pc)
		}
	}
	sort.Ints(pcs)
	var funcs []*mfunc
	for i, pc := range pcs {
		end := len(p.Insts)
		if i+1 < len(pcs) {
			end = pcs[i+1]
		}
		funcs = append(funcs, &mfunc{name: starts[pc], start: pc, end: end})
	}
	for _, f := range funcs {
		buildBlocks(p, f)
	}
	return funcs
}

// buildBlocks constructs basic blocks and edges for f. Calls are treated as
// sequential (control returns), jr ends control flow (function return), and
// branch targets outside the function are treated as exits.
func buildBlocks(p *isa.Program, f *mfunc) {
	leader := map[int]bool{f.start: true}
	for pc := f.start; pc < f.end; pc++ {
		in := &p.Insts[pc]
		switch in.Op {
		case isa.OpBr, isa.OpJmp:
			if in.Target >= f.start && in.Target < f.end {
				leader[in.Target] = true
			}
			if pc+1 < f.end {
				leader[pc+1] = true
			}
		case isa.OpJr, isa.OpHalt:
			if pc+1 < f.end {
				leader[pc+1] = true
			}
		}
	}
	var starts []int
	for pc := range leader {
		starts = append(starts, pc)
	}
	sort.Ints(starts)
	byStart := make(map[int]*mblock, len(starts))
	for i, s := range starts {
		end := f.end
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		b := &mblock{id: i, start: s, end: end}
		f.blocks = append(f.blocks, b)
		byStart[s] = b
	}
	edge := func(from *mblock, to int) {
		t, ok := byStart[to]
		if !ok {
			return
		}
		from.succs = append(from.succs, t)
		t.preds = append(t.preds, from)
	}
	for _, b := range f.blocks {
		if b.end == b.start {
			continue
		}
		last := &p.Insts[b.end-1]
		switch last.Op {
		case isa.OpBr:
			edge(b, last.Target)
			edge(b, b.end)
		case isa.OpJmp:
			edge(b, last.Target)
		case isa.OpJr, isa.OpHalt:
			// No intra-function successors.
		default:
			edge(b, b.end)
		}
	}
}

// mdoms computes immediate dominators over f's blocks (entry-index order is
// already a valid traversal basis; uses the iterative algorithm).
func mdoms(f *mfunc) map[*mblock]*mblock {
	if len(f.blocks) == 0 {
		return nil
	}
	entry := f.blocks[0]
	var rpo []*mblock
	seen := map[*mblock]bool{}
	var dfs func(b *mblock)
	dfs = func(b *mblock) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.succs {
			dfs(s)
		}
		rpo = append(rpo, b)
	}
	dfs(entry)
	for i, j := 0, len(rpo)-1; i < j; i, j = i+1, j-1 {
		rpo[i], rpo[j] = rpo[j], rpo[i]
	}
	order := map[*mblock]int{}
	for i, b := range rpo {
		order[b] = i
	}
	idom := map[*mblock]*mblock{entry: entry}
	intersect := func(a, b *mblock) *mblock {
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
		for _, b := range rpo {
			if b == entry {
				continue
			}
			var ni *mblock
			for _, p := range b.preds {
				if idom[p] == nil {
					continue
				}
				if ni == nil {
					ni = p
				} else {
					ni = intersect(ni, p)
				}
			}
			if ni != nil && idom[b] != ni {
				idom[b] = ni
				changed = true
			}
		}
	}
	return idom
}

func dominates(idom map[*mblock]*mblock, a, b *mblock) bool {
	for {
		if a == b {
			return true
		}
		n := idom[b]
		if n == nil || n == b {
			return false
		}
		b = n
	}
}

// mloop is a natural loop over machine blocks.
type mloop struct {
	header *mblock
	blocks map[*mblock]bool
	depth  int
}

// findMLoops returns f's natural loops sorted innermost (deepest) first.
func findMLoops(f *mfunc) []*mloop {
	idom := mdoms(f)
	byHeader := map[*mblock]*mloop{}
	var loops []*mloop
	for _, b := range f.blocks {
		for _, s := range b.succs {
			if idom[b] == nil || !dominates(idom, s, b) {
				continue
			}
			l := byHeader[s]
			if l == nil {
				l = &mloop{header: s, blocks: map[*mblock]bool{s: true}}
				byHeader[s] = l
				loops = append(loops, l)
			}
			stack := []*mblock{b}
			for len(stack) > 0 {
				n := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if l.blocks[n] {
					continue
				}
				l.blocks[n] = true
				stack = append(stack, n.preds...)
			}
		}
	}
	for _, a := range loops {
		for _, b := range loops {
			if a != b && b.blocks[a.header] {
				a.depth++
			}
		}
		a.depth++ // self
	}
	sort.SliceStable(loops, func(i, j int) bool { return loops[i].depth > loops[j].depth })
	return loops
}
