package harness

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"elag/internal/workload"
)

// Grid planning: every experiment is a (benchmark, cell) grid, declared
// as data by an experiment value. The planner takes the rows that the row
// cache lacks, unions their cells per benchmark, and dispatches whole
// benchmarks: a benchmark's lab is built once and all of its missing
// cells replay in one streamed pass (Lab.cycles), so workers have
// benchmark affinity and never contend for a lab. Each row writes a
// preallocated slot indexed by benchmark, and each experiment aggregates
// (averages, row ordering) in benchmark order afterwards; with per-cell
// results independent of scheduling, the output is bit-identical at every
// worker count and for every grouping of experiments into runs.

// experiment is one grid experiment declared as data: the cells every
// benchmark of its suite needs, and how a benchmark's row is filled from
// their cycles. The planner (Runner.plan) owns everything else: the row
// cache, lab building, replay and scheduling.
type experiment struct {
	// name and series (figure series labels) key the experiment's rows
	// in the row cache.
	name   string
	series []string
	suite  workload.Suite
	cells  []cell
	// row returns benchmark i's result slot: cached rows are decoded into
	// it, computed rows marshalled from it.
	row func(i int) any
	// fill computes benchmark i's row from its lab and the cycles of
	// cells, in cells order.
	fill func(i int, l *Lab, cycles []int64)
	// finish aggregates the rows, in benchmark order, into the document.
	finish func() error
}

// experiments builds each experiment by name, bound to the document it
// fills.
var experiments = map[string]func(doc *BenchDocument) *experiment{
	"table2":   table2,
	"table3":   table3,
	"table4":   table4,
	"fig5a":    figure5a,
	"fig5b":    figure5b,
	"fig5c":    figure5c,
	"embedded": embedded,
	"figmech":  figureMech,
}

// documentExps are the experiments Document runs. FigureMech runs only
// when named, so full-evaluation documents keep their bytes.
var documentExps = []string{"table2", "table3", "table4", "fig5a", "fig5b", "fig5c", "embedded"}

// run runs the named experiments as one plan into a fresh document. The
// document is non-nil even on error, so a single-experiment method can
// return its field alongside the error: an experiment's field is set only
// once the whole plan has succeeded.
func (r *Runner) run(ctx context.Context, names ...string) (*BenchDocument, error) {
	doc := &BenchDocument{Schema: BenchSchema, Fuel: r.Fuel}
	exps := make([]*experiment, len(names))
	for i, name := range names {
		build, ok := experiments[name]
		if !ok {
			return doc, fmt.Errorf("unknown experiment %q", name)
		}
		exps[i] = build(doc)
	}
	return doc, r.plan(ctx, exps)
}

// need is one row a plan must compute: benchmark i of experiment e.
type need struct {
	e *experiment
	i int
}

// plan computes every row of exps the row cache lacks — one lab and one
// replay pass per benchmark, over the union of its missing rows' cells —
// stores the computed rows, and finishes each experiment. Benchmarks run
// in workload.All() order, SPEC first: they carry the most cells, so they
// start before the short Media columns. Progress (and lab-cache counters)
// reflect only the benchmarks the plan had to compute; a fully cached
// plan builds no labs at all.
func (r *Runner) plan(ctx context.Context, exps []*experiment) error {
	needs := map[*workload.Workload][]need{}
	for _, e := range exps {
		for i, w := range workload.BySuite(e.suite) {
			if !r.cachedRow(e, w, e.row(i)) {
				needs[w] = append(needs[w], need{e, i})
			}
		}
	}
	var benches []*workload.Workload
	for _, w := range workload.All() {
		if len(needs[w]) > 0 {
			benches = append(benches, w)
		}
	}
	err := r.forEachLab(ctx, benches, func(ctx context.Context, k int, l *Lab) error {
		var cells []cell
		for _, n := range needs[benches[k]] {
			cells = append(cells, n.e.cells...)
		}
		cycles, err := l.cycles(ctx, cells)
		if err != nil {
			return err
		}
		for _, n := range needs[benches[k]] {
			n.e.fill(n.i, l, cycles[:len(n.e.cells)])
			cycles = cycles[len(n.e.cells):]
		}
		r.logf("%s done", l.W.Name)
		return nil
	})
	if err != nil {
		return err
	}
	for _, w := range benches {
		for _, n := range needs[w] {
			r.putRow(n.e, w, n.e.row(n.i))
		}
	}
	for _, e := range exps {
		if err := e.finish(); err != nil {
			return err
		}
	}
	return nil
}

// forEachLab builds the lab for each workload and calls fn(ctx, i, lab),
// fanning benchmarks across r.workers() goroutines. fn is called at most
// once per benchmark, each invocation on a single goroutine (distinct
// benchmarks may run concurrently). The first error cancels the remaining
// benchmarks and is returned; cancelling ctx cancels the grid the same way
// and returns the ctx error. Shutdown is leak-free at every stage: by the
// time forEachLab returns, every worker goroutine it started has exited —
// the pool never outlives the call, whether it ends by completion, by
// first error, or by external cancellation.
func (r *Runner) forEachLab(ctx context.Context, benches []*workload.Workload, fn func(ctx context.Context, i int, l *Lab) error) error {
	// doneN feeds the Progress hook; it counts completed benchmark
	// columns of THIS forEachLab call (each experiment restarts at 0).
	var doneN atomic.Int64
	progress := func(i int) {
		if r.Progress != nil {
			r.Progress(benches[i].Name, int(doneN.Add(1)), len(benches))
		}
	}
	if r.workers() <= 1 || len(benches) <= 1 {
		for i, w := range benches {
			if err := ctx.Err(); err != nil {
				return err
			}
			l, err := r.Lab(ctx, w)
			if err != nil {
				return err
			}
			if err := fn(ctx, i, l); err != nil {
				return err
			}
			progress(i)
		}
		return nil
	}

	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		firstErr error
		errOnce  sync.Once
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}

	idx := make(chan int)
	workers := r.workers()
	if workers > len(benches) {
		workers = len(benches)
	}
	for n := 0; n < workers; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-gctx.Done():
					return
				case i, ok := <-idx:
					if !ok {
						return
					}
					if gctx.Err() != nil {
						continue // raced with cancellation; drain
					}
					l, err := r.Lab(gctx, benches[i])
					if err != nil {
						fail(err)
						continue
					}
					if err := fn(gctx, i, l); err != nil {
						fail(err)
						continue
					}
					progress(i)
				}
			}
		}()
	}
	// The feeder must never block on a pool that stopped consuming: once
	// gctx is cancelled (first error or external cancel) the send loop
	// stops, idx closes, and the workers' two exit paths (Done, closed
	// idx) drain the pool.
feed:
	for i := range benches {
		select {
		case idx <- i:
		case <-gctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	// External cancellation may land after the last fn returned but before
	// any call observed it; the grid still reports it.
	return ctx.Err()
}
