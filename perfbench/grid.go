package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"time"

	"elag"
	"elag/internal/core"
	"elag/internal/emu"
	"elag/internal/harness"
	"elag/internal/pipeline"
	"elag/internal/profile"
	"elag/internal/workload"
)

// paper-grid: a cold harness.Runner.Document at the reference fuel with
// elag-bench's defaults (parallel = CPUs, default chunking, no artifact
// store), followed by FigureMech, which Document omits. The corpus is the
// paper's fixed 25 kernels, so the seed has no effect.

type gridBench struct {
	o      *options
	corpus []*workload.Workload
	progs  []*elag.Program // corpus[i] compiled
	// labInsts is each kernel's retired instructions at the grid fuel: the
	// DynamicInsts of its lab. It is computed once per run, before the
	// window, and carried into the traced run.
	labInsts map[string]int64
	// first holds the first op's encoded documents; every later op, the
	// traced one included, must reproduce them byte for byte. cellInsts
	// is the simulated work they stand for (see gridCellInsts).
	first     *gridDocs
	cellInsts int64
}

// gridDocs are one op's artifacts as elag-bench writes them: the
// -exp all -json document and the -exp figmech -json document.
type gridDocs struct {
	all, figmech []byte
}

// setupGrid loads the corpus and compiles every kernel once, so a broken
// input fails before timing starts.
func setupGrid(ctx context.Context, o *options) (bench, error) {
	g := &gridBench{o: o, corpus: workload.All()}
	for _, w := range g.corpus {
		p, err := elag.Build(w.Source, elag.BuildOptions{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		g.progs = append(g.progs, p)
	}
	return g, nil
}

func (g *gridBench) close() error { return nil }

// carry hands the untraced run's lab instruction counts and first
// documents to the traced run, whose op is then checked against them.
func (g *gridBench) carry(untraced bench) {
	u := untraced.(*gridBench)
	g.labInsts, g.first, g.cellInsts = u.labInsts, u.first, u.cellInsts
}

// loadLabInsts runs every kernel once at the grid fuel for its lab's
// retired instruction count.
func (g *gridBench) loadLabInsts() error {
	if g.labInsts != nil {
		return nil
	}
	m := map[string]int64{}
	for i, p := range g.progs {
		res, err := p.Run(g.o.Size.GridFuel)
		if err != nil && !errors.Is(err, elag.ErrFuel) {
			return fmt.Errorf("%s: %w", g.corpus[i].Name, err)
		}
		m[g.corpus[i].Name] = res.DynamicInsts
	}
	g.labInsts = m
	return nil
}

// gridCellInsts is the simulated work a grid op's documents stand for: the
// sum over the grid's cells of each cell's lab instructions. A cell is one
// (kernel, configuration) value the documents report — a Table 3 or Table
// 4 speedup, a figure point, the three configurations of an embedded row —
// plus, once per kernel, the paper base its speedups divide. Table 2
// reports profile statistics and has no cells. The sum depends on the
// documents alone, not on how the runner schedules its passes, so a
// planner that replays the same cells in fewer passes raises the rate
// built on it.
func gridCellInsts(doc *harness.BenchDocument, fig *harness.Figure, labInsts map[string]int64) (int64, error) {
	cells := map[string]int64{}
	based := map[string]bool{}
	speedup := func(kernel string) { cells[kernel]++; based[kernel] = true }
	for _, r := range doc.Table3 {
		speedup(r.Name)
	}
	for _, r := range doc.Table4 {
		speedup(r.Name)
	}
	for _, f := range []*harness.Figure{doc.Figure5a, doc.Figure5b, doc.Figure5c, fig} {
		for _, s := range f.Series {
			for kernel := range s.Speedups {
				speedup(kernel)
			}
		}
	}
	for _, r := range doc.Embedded {
		cells[r.Name] += 3
	}
	var total int64
	for kernel, n := range cells {
		if kernel == "average" {
			continue
		}
		insts, ok := labInsts[kernel]
		if !ok {
			return 0, fmt.Errorf("the document reports unknown kernel %q", kernel)
		}
		if based[kernel] {
			n++
		}
		total += n * insts
	}
	if total == 0 {
		return 0, errors.New("the document reports no simulated cells")
	}
	return total, nil
}

// runner is a cold runner with elag-bench's defaults. The counters only
// observe: results are byte-identical with or without them.
func (g *gridBench) runner(c *harness.Counters) *harness.Runner {
	return &harness.Runner{Fuel: g.o.Size.GridFuel, Parallel: runtime.NumCPU(), Counters: c}
}

func (g *gridBench) measure(ctx context.Context, d time.Duration, tr *tracer, hs *heapSampler) (*window, error) {
	if err := g.loadLabInsts(); err != nil {
		return nil, err
	}
	if tr != nil {
		return g.traced(ctx, tr)
	}
	w := &window{}
	var wall float64
	start := time.Now()
	for another(start, d, w.attempted, w.opMS) {
		runtime.GC()
		var c harness.Counters
		r := g.runner(&c)
		w.attempted++
		t := time.Now()
		doc, err := r.Document(ctx)
		var fig *harness.Figure
		if err == nil {
			fig, err = r.FigureMech(ctx)
		}
		sec := time.Since(t).Seconds()
		hs.cut()
		if err != nil {
			w.fail("paper-grid op %d: %v", w.attempted, err)
			continue
		}
		docs, err := encode(doc, fig)
		if err != nil {
			w.fail("paper-grid op %d: encode: %v", w.attempted, err)
			continue
		}
		if !g.compare(w, docs, doc, fig) {
			continue
		}
		w.opMS = append(w.opMS, sec*1e3)
		wall += sec
	}
	w.opsPerSec = ratio(float64(len(w.opMS)), wall)
	w.minstPerSec = ratio(float64(g.cellInsts)*float64(len(w.opMS)), wall) / 1e6
	return w, nil
}

// encode renders doc and fig the way elag-bench -json does.
func encode(doc *harness.BenchDocument, fig *harness.Figure) (*gridDocs, error) {
	var all, mech bytes.Buffer
	if err := harness.WriteBenchJSON(&all, doc); err != nil {
		return nil, err
	}
	figDoc := &harness.BenchDocument{Schema: harness.BenchSchema, Fuel: doc.Fuel, FigureMech: fig}
	if err := harness.WriteBenchJSON(&mech, figDoc); err != nil {
		return nil, err
	}
	return &gridDocs{all.Bytes(), mech.Bytes()}, nil
}

// compare checks one op's encoded artifacts against the first op's. The
// first op's documents also give the grid's cell instructions. It reports
// whether the op passed.
func (g *gridBench) compare(w *window, docs *gridDocs, doc *harness.BenchDocument, fig *harness.Figure) bool {
	if g.first == nil {
		n, err := gridCellInsts(doc, fig, g.labInsts)
		if err != nil {
			w.fail("paper-grid: %v", err)
			return false
		}
		g.first, g.cellInsts = docs, n
		w.note("paper-grid -exp all -json sha256 %x", sha256.Sum256(docs.all))
		w.note("paper-grid -exp figmech -json sha256 %x", sha256.Sum256(docs.figmech))
		w.note("paper-grid cell instructions per op %d", n)
		return true
	}
	if !bytes.Equal(docs.all, g.first.all) || !bytes.Equal(docs.figmech, g.first.figmech) {
		w.fail("paper-grid: document bytes differ from the first op's")
		return false
	}
	return true
}

// sha48 is the first 48 bits of data's SHA-256, exact as a JSON number.
func sha48(data []byte) float64 {
	h := sha256.Sum256(data)
	var b [8]byte
	copy(b[2:], h[:6])
	return float64(binary.BigEndian.Uint64(b[:]))
}

// traced runs one traced grid op — each experiment method in its own span,
// then the encoding — and then, per kernel, a pair of split ops: the same
// work untraced and traced, in alternating order. A split op times the lab
// build and, on the same inputs, the compile, profile and reclassify calls
// inside it and a streamed pass over paperCells. trace.overhead_frac is
// the traced split ops' time over the untraced ones', since the split ops
// carry the fine-grained spans.
func (g *gridBench) traced(ctx context.Context, tr *tracer) (*window, error) {
	w := &window{layers: map[string]float64{}}
	var c harness.Counters
	r := g.runner(&c)
	doc := &harness.BenchDocument{Schema: harness.BenchSchema, Fuel: r.Fuel}
	var fig *harness.Figure
	steps := []func() error{
		func() (err error) { doc.Table2, err = r.Table2(ctx); return },
		func() (err error) { doc.Table3, err = r.Table3(ctx); return },
		func() (err error) { doc.Table4, err = r.Table4(ctx); return },
		func() (err error) { doc.Figure5a, err = r.Figure5a(ctx); return },
		func() (err error) { doc.Figure5b, err = r.Figure5b(ctx); return },
		func() (err error) { doc.Figure5c, err = r.Figure5c(ctx); return },
		func() (err error) { doc.Embedded, err = r.Embedded(ctx); return },
		func() (err error) { fig, err = r.FigureMech(ctx); return },
	}
	w.attempted++
	op, root := tr.op("grid")
	var err error
	for i, step := range steps {
		id := tr.begin(op, root, "harness.exp."+experiments[i])
		err = step()
		tr.end(id)
		if err != nil {
			break
		}
	}
	var docs *gridDocs
	if err == nil {
		id := tr.begin(op, root, "harness.encode")
		docs, err = encode(doc, fig)
		tr.end(id)
	}
	tr.end(root)
	if err != nil {
		w.fail("paper-grid traced op: %v", err)
		return w, nil
	}
	if !g.compare(w, docs, doc, fig) {
		return w, nil
	}

	w.layers["harness.lab_builds"] = float64(c.LabMisses.Load())
	w.layers["profile.runs"] = float64(c.LabMisses.Load())
	w.layers["harness.replayed_entries"] = float64(c.Insts.Load())
	w.layers["pipeline.sim_insts"] = float64(g.cellInsts)
	w.layers["pipeline.batch_width"] = ratio(float64(g.cellInsts), float64(c.Insts.Load()))
	w.layers["model.grid_doc_sha48"] = sha48(docs.all)
	w.layers["model.figmech_doc_sha48"] = sha48(docs.figmech)
	for _, s := range doc.Figure5c.Series {
		if s.Label == "compiler dual" {
			w.layers["model.spec_speedup_avg"] = s.Average
		}
	}
	if n := len(doc.Table4); n > 0 {
		w.layers["model.media_speedup_avg"] = doc.Table4[n-1].Speedup
	}

	var model modelStats
	var plain, traced time.Duration
	for i, wl := range g.corpus {
		w.attempted++
		var ms []*pipeline.Metrics
		for k := 0; k < 2; k++ {
			t := time.Now()
			if (i+k)%2 == 0 {
				_, err = g.splitLab(ctx, nil, wl)
				plain += time.Since(t)
			} else {
				ms, err = g.splitLab(ctx, tr, wl)
				traced += time.Since(t)
			}
			if err != nil {
				break
			}
		}
		if err != nil {
			w.fail("paper-grid split %s: %v", wl.Name, err)
			continue
		}
		model.add(ms[0], ms[1])
	}
	model.put(w.layers)
	w.tracedMS, w.untracedMS = traced.Seconds()*1e3, plain.Seconds()*1e3
	// Every replay pass walks one lab's whole trace, so replayed entries
	// over the mean entries per lab estimates the replay passes.
	var labInsts int64
	for _, n := range g.labInsts {
		labInsts += n
	}
	mean := ratio(float64(labInsts), float64(len(g.labInsts)))
	w.layers["harness.arch_passes"] = float64(c.LabMisses.Load()) + ratio(float64(c.Insts.Load()), mean)
	return w, nil
}

// splitLab is one split op for kernel wl, on a cold runner of its own. It
// returns the metrics of its streamed pass, after checking that the lab
// and every cell of the pass retired the kernel's lab instructions.
func (g *gridBench) splitLab(ctx context.Context, tr *tracer, wl *workload.Workload) ([]*pipeline.Metrics, error) {
	r := &harness.Runner{Fuel: g.o.Size.GridFuel}
	op, root := tr.op("grid.split")
	defer tr.end(root)

	id := tr.begin(op, root, "harness.lab")
	l, err := r.Lab(ctx, wl)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	want := g.labInsts[wl.Name]
	if l.EmuRes.DynamicInsts != want {
		return nil, fmt.Errorf("lab retired %d insts, Program.Run retired %d", l.EmuRes.DynamicInsts, want)
	}
	id = tr.begin(op, root, "passman.build")
	p, err := elag.Build(wl.Source, elag.BuildOptions{})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	tr.count("passman.insts", int64(len(p.Machine.Insts)))
	id = tr.begin(op, root, "profile.collect")
	lp, res, err := profile.CollectContext(ctx, p.Machine, r.Fuel)
	tr.end(id)
	if err != nil && !errors.Is(err, emu.ErrFuel) {
		return nil, err
	}
	tr.count("profile.insts", res.DynamicInsts)
	id = tr.begin(op, root, "core.reclassify")
	core.Reclassify(p.Classes, lp.Rates(), 0)
	tr.end(id)

	cells := paperCells()
	ms, _, err := streamPass(ctx, tr, op, root, p.Machine, r.Fuel, cells)
	if err != nil {
		return nil, err
	}
	for i, m := range ms {
		if m.Insts != want {
			return nil, fmt.Errorf("%s cell retired %d insts, lab retired %d", cells[i].layer, m.Insts, want)
		}
	}
	return ms, nil
}
