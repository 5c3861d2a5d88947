// Package harness regenerates the paper's evaluation: Tables 2-4 and
// Figures 5a-5c, over the workload suite of package workload. Each
// benchmark is compiled once; its dynamic trace is generated once and
// replayed under every hardware configuration, exactly like the paper's
// emulation-driven methodology.
//
// Experiments are declared as data — the (configuration, flavours) cells
// each benchmark needs and how its row is filled from their cycles — and a
// planner runs them: the union of every requested experiment's missing
// cells per benchmark replays in one streamed pass, and a cell already
// simulated on a lab is never simulated again. Benchmarks fan out across a
// worker pool (Runner.Parallel) with benchmark affinity: one worker owns a
// benchmark's whole column of cells. Labs are immutable after
// construction — per-simulation load flavours travel as overlays, never as
// program mutations — so every cell is data-race-free and the results
// (cycle counts, speedups, averages) are bit-identical at any parallelism
// level and chunk size.
package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync"

	"elag"
	"elag/internal/artifact"
	"elag/internal/core"
	"elag/internal/emu"
	"elag/internal/isa"
	"elag/internal/mech"
	_ "elag/internal/mech/all" // register the assist mechanisms
	"elag/internal/pipeline"
	"elag/internal/profile"
	"elag/internal/workload"
)

// Runner executes experiments. The zero value is usable; set Fuel to bound
// per-benchmark dynamic instructions (0 means run each program to
// completion), Parallel to fan benchmarks across workers, and Log to
// observe progress.
type Runner struct {
	// Fuel caps emulated instructions per benchmark; a truncated trace
	// is still valid for timing studies. 0 means unlimited.
	Fuel int64
	// Log, when non-nil, receives progress lines.
	Log io.Writer
	// Parallel is the worker count for grid experiments; <=1 runs
	// serially. Results are identical at every setting — parallelism
	// changes wall time only.
	Parallel int
	// ChunkSize is the streaming chunk size: every replay pass re-streams
	// the architectural execution in chunks of this many entries, so peak
	// trace memory is O(ChunkSize) at any fuel. 0 means
	// emu.DefaultChunkSize. Results are bit-identical at every setting.
	ChunkSize int
	// NoSpecialize disables the config-specialized replay kernels in every
	// simulation this runner starts. Results are byte-identical either
	// way — it is an escape hatch and a differential-testing lever.
	NoSpecialize bool
	// Counters, when non-nil, receives work-volume telemetry (lab-cache
	// hits/misses, replayed chunks and entries). Purely observational:
	// results are byte-identical with or without it.
	Counters *Counters
	// Artifacts, when non-nil, caches grid experiments at per-benchmark
	// row granularity through the content-addressed store: a row already
	// present (same experiment, benchmark source, fuel, chunk — see
	// rowKey) is decoded instead of simulated, so overlapping grids
	// recompute only missing rows. Cached rows round-trip through JSON,
	// which preserves float64 bits exactly — documents built from cached
	// rows are byte-identical to cold ones.
	Artifacts *artifact.Store
	// Progress, when non-nil, is called after each planned benchmark of
	// an experiment run completes, with the benchmark name and the
	// done/total counts over the benchmarks that run had to compute. A
	// Document is one run, so its counts span every experiment in it.
	// Called from grid worker goroutines; must be cheap and
	// concurrency-safe.
	Progress func(bench string, done, total int)

	logMu sync.Mutex

	labMu sync.Mutex
	labs  map[string]*labEntry
}

// labEntry is one cache slot. ready is closed once l/err are set;
// concurrent requests for the same benchmark wait on it instead of
// building twice (single-flight).
type labEntry struct {
	ready chan struct{}
	l     *Lab
	err   error
}

func (r *Runner) logf(format string, args ...any) {
	if r.Log != nil {
		r.logMu.Lock()
		fmt.Fprintf(r.Log, format+"\n", args...)
		r.logMu.Unlock()
	}
}

// workers returns the effective worker-pool size.
func (r *Runner) workers() int {
	if r.Parallel > 1 {
		return r.Parallel
	}
	return 1
}

// Lab is one benchmark prepared for experiments: compiled, classified and
// profiled. It holds no trace: every replay pass re-streams the
// architectural execution, so a lab costs about a hundred kilobytes at any
// fuel. A Lab is immutable once built apart from its cell memo —
// simulations pick a classification by passing one of the flavour
// overlays (or nil for the program's baked-in flavours), and any number of
// simulations may share the lab concurrently.
type Lab struct {
	W *workload.Workload
	// Prog is the compiled program. Its instruction stream is never
	// mutated after Build.
	Prog *elag.Program
	// Heur is the classification from the Section 4 heuristics alone;
	// Reclass additionally applies the Section 4.3 address profile.
	Heur    *core.Classification
	Reclass *core.Classification
	// HeurFlavors / ReclassFlavors are the overlay forms of the two
	// classifications, ready to pass to Simulate.
	HeurFlavors    isa.FlavorOverlay
	ReclassFlavors isa.FlavorOverlay
	// Profile holds per-load unlimited-table prediction rates.
	Profile *profile.LoadProfile
	// EmuRes summarizes the architectural run. The profiler's run is a
	// complete architectural execution under the runner's fuel, so it
	// stands for every replay pass's.
	EmuRes emu.Result

	fuel     int64     // runner fuel, for streaming re-emulation
	chunk    int       // streaming chunk size
	noSpec   bool      // Runner.NoSpecialize
	counters *Counters // work telemetry (Runner.Counters; may be nil)

	// cellMu serializes cycles calls, so each cell runs at most once;
	// memo maps cell keys to cycle counts of passes that succeeded.
	cellMu sync.Mutex
	memo   map[string]int64
}

// Lab prepares the lab for one workload, returning the cached one when
// available. Concurrent callers requesting the same benchmark share one
// build; distinct benchmarks build independently. The runner keeps every
// lab it builds: a lab holds no trace, so all 25 fit in a few megabytes.
//
// ctx bounds the build (compile, profile): a cancelled ctx aborts with the
// ctx error. When the single-flight build a caller was waiting on fails
// because the *builder's* ctx was cancelled, a waiter whose own ctx is
// still live retries the build instead of inheriting the cancellation —
// one caller's deadline never fails another caller's request.
func (r *Runner) Lab(ctx context.Context, w *workload.Workload) (*Lab, error) {
	for {
		l, err := r.labOnce(ctx, w)
		if err == nil || !isContextErr(err) || ctx.Err() != nil {
			return l, err
		}
		// The build was cancelled under someone else's ctx; ours is live.
	}
}

// isContextErr reports whether err is a context cancellation or deadline
// error (possibly wrapped).
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// labOnce is one single-flight pass over the lab cache: join an in-flight
// build or become the builder.
func (r *Runner) labOnce(ctx context.Context, w *workload.Workload) (*Lab, error) {
	r.labMu.Lock()
	if r.labs == nil {
		r.labs = make(map[string]*labEntry)
	}
	if e, ok := r.labs[w.Name]; ok {
		r.labMu.Unlock()
		if r.Counters != nil {
			r.Counters.LabHits.Add(1)
		}
		<-e.ready
		return e.l, e.err
	}
	if r.Counters != nil {
		r.Counters.LabMisses.Add(1)
	}
	e := &labEntry{ready: make(chan struct{})}
	r.labs[w.Name] = e
	r.labMu.Unlock()

	e.l, e.err = r.buildLab(ctx, w)
	if e.err != nil {
		// Do not cache failures: a later retry rebuilds.
		r.labMu.Lock()
		delete(r.labs, w.Name)
		r.labMu.Unlock()
	}
	close(e.ready)
	return e.l, e.err
}

func (r *Runner) buildLab(ctx context.Context, w *workload.Workload) (*Lab, error) {
	r.logf("build %s", w.Name)
	p, err := elag.Build(w.Source, elag.BuildOptions{})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	lp, res, err := profile.CollectContext(ctx, p.Machine, r.Fuel)
	if err != nil && !errors.Is(err, emu.ErrFuel) {
		return nil, fmt.Errorf("%s: profile: %w", w.Name, err)
	}
	chunk := r.ChunkSize
	if chunk <= 0 {
		chunk = emu.DefaultChunkSize
	}
	l := &Lab{W: w, Prog: p, Heur: p.Classes, Profile: lp, EmuRes: res,
		fuel: r.Fuel, chunk: chunk, noSpec: r.NoSpecialize,
		counters: r.Counters}
	l.Reclass = core.Reclassify(l.Heur, lp.Rates(), 0)
	l.HeurFlavors = l.Heur.Overlay(p.Machine)
	l.ReclassFlavors = l.Reclass.Overlay(p.Machine)
	return l, nil
}

// Simulate replays the benchmark under cfg. flavors selects the load
// classification (l.HeurFlavors, l.ReclassFlavors, or nil for the
// program's baked-in flavours). ctx cancels the replay between chunks;
// an uncancelled replay is byte-identical at every chunk setting.
func (l *Lab) Simulate(ctx context.Context, cfg pipeline.Config, flavors isa.FlavorOverlay) (*pipeline.Metrics, error) {
	ms, err := l.SimulateBatch(ctx, []pipeline.BatchSpec{{Config: cfg, Flavors: flavors}})
	if err != nil {
		return nil, err
	}
	return ms[0], nil
}

// SimulateBatch is the lab's replay engine: it replays the benchmark under
// every spec in a single pass — one architectural execution, re-emulated
// through recycled chunks and never materialized, shared by all
// configurations, each chunk cache-hot across the whole batch — returning
// metrics in spec order. Results are bit-identical to len(specs) Simulate
// calls. Cancellation is checked between chunks, so every job through the
// lab honors its deadline within one chunk of work.
func (l *Lab) SimulateBatch(ctx context.Context, specs []pipeline.BatchSpec) ([]*pipeline.Metrics, error) {
	sims, err := pipeline.NewBatch(l.Prog.Machine, specs)
	if err != nil {
		return nil, err
	}
	for _, sim := range sims {
		sim.SetNoSpecialize(l.noSpec)
	}
	_, err = emu.StreamTraceContext(ctx, l.Prog.Machine, l.fuel, l.chunk, func(chunk *emu.Trace) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := pipeline.RunChunkBatch(sims, chunk); err != nil {
			return err
		}
		l.counters.CountChunk(chunk.Len())
		return nil
	})
	if err != nil && !errors.Is(err, emu.ErrFuel) {
		return nil, err
	}
	ms := make([]*pipeline.Metrics, len(sims))
	for i, sim := range sims {
		ms[i] = sim.Metrics()
		if ms[i].MechStats != nil {
			l.counters.CountMech(ms[i].MechKind, *ms[i].MechStats)
		}
	}
	return ms, nil
}

// flavor selects the load classification a cell simulates under.
type flavor uint8

const (
	flavProgram flavor = iota // the program's baked-in flavours
	flavHeur                  // Lab.HeurFlavors: the Section 4 heuristics
	flavReclass               // Lab.ReclassFlavors: plus the Section 4.3 profile
)

// overlay returns the flavour overlay f selects on l.
func (l *Lab) overlay(f flavor) isa.FlavorOverlay {
	switch f {
	case flavHeur:
		return l.HeurFlavors
	case flavReclass:
		return l.ReclassFlavors
	}
	return nil
}

// cell is one memoizable simulation of a lab: a hardware configuration
// under a flavour selector.
type cell struct {
	cfg  pipeline.Config
	flav flavor
}

// baseCell is the base architecture, the denominator of every speedup in
// Section 5.
var baseCell = cell{cfg: pipeline.PaperBase()}

// key is the cell's canonical identity: the configuration's JSON encoding,
// which follows pointers and spells equal configurations identically, plus
// the selector.
func (c cell) key() string {
	b, err := json.Marshal(c.cfg)
	if err != nil {
		panic(err) // Config is plain data
	}
	return string(b) + "/" + strconv.Itoa(int(c.flav))
}

// cycles returns each cell's cycle count. Cells the lab has not simulated
// yet run together in one SimulateBatch pass, duplicates once; a pass that
// fails (a cancelled ctx included) memoizes nothing, so a cancelled call
// leaves the lab exactly as it found it. Safe for concurrent use.
func (l *Lab) cycles(ctx context.Context, cells []cell) ([]int64, error) {
	l.cellMu.Lock()
	defer l.cellMu.Unlock()
	keys := make([]string, len(cells))
	var specs []pipeline.BatchSpec
	var missing []string
	for i, c := range cells {
		keys[i] = c.key()
		if _, ok := l.memo[keys[i]]; ok || slices.Contains(missing, keys[i]) {
			continue
		}
		specs = append(specs, pipeline.BatchSpec{Config: c.cfg, Flavors: l.overlay(c.flav)})
		missing = append(missing, keys[i])
	}
	if len(specs) > 0 {
		ms, err := l.SimulateBatch(ctx, specs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", l.W.Name, err)
		}
		for _, m := range ms {
			if m.Cycles == 0 {
				return nil, fmt.Errorf("%s: zero cycles", l.W.Name)
			}
		}
		if l.memo == nil {
			l.memo = make(map[string]int64)
		}
		for i, m := range ms {
			l.memo[missing[i]] = m.Cycles
		}
	}
	out := make([]int64, len(cells))
	for i, k := range keys {
		out[i] = l.memo[k]
	}
	return out, nil
}

// BaseCycles returns the cycle count of the base architecture, the
// denominator of every speedup in Section 5. It is the lab's base cell, so
// it runs at most once per lab, and only success is memoized.
func (l *Lab) BaseCycles(ctx context.Context) (int64, error) {
	c, err := l.cycles(ctx, []cell{baseCell})
	if err != nil {
		return 0, err
	}
	return c[0], nil
}

// speedup is the Section 5 speedup of a cell over its base.
func speedup(base, cycles int64) float64 { return float64(base) / float64(cycles) }

// Standard hardware configurations of Section 5, expressed through the
// mechanism registry (internal/mech): pipeline.New normalizes each paper
// spec to the identical typed configuration, so these produce metrics
// byte-identical to the pre-registry literals while sharing the spec
// vocabulary of the CLI flags and the serve job API.

// CompilerDual is the paper's proposal: 256-entry table + 1 R_addr,
// compiler-selected flavours.
func CompilerDual() pipeline.Config { return pipeline.PaperCompilerDirected() }

// Assist wraps one registry spec as a configuration: the mechanism drives
// every load through the assist path, regardless of flavour.
func Assist(spec mech.Spec) pipeline.Config {
	return pipeline.Config{Mechanisms: []mech.Spec{spec}}
}

// HWPredict is hardware-only table prediction with the given table size
// (Figure 5a without compiler support).
func HWPredict(entries int) pipeline.Config {
	return pipeline.Config{
		Select:     pipeline.SelAllPredict,
		Mechanisms: []mech.Spec{{Kind: "addrpred", Entries: entries}},
	}
}

// CompilerPredict is table-only hardware with compiler support: only loads
// the heuristics marked predictable enter the table (Figure 5a "with
// compiler support").
func CompilerPredict(entries int) pipeline.Config {
	return pipeline.Config{
		Select:     pipeline.SelCompiler,
		Mechanisms: []mech.Spec{{Kind: "addrpred", Entries: entries}},
		// No register cache: ld_e loads behave like normal loads.
	}
}

// HWEarly is hardware-only early calculation with n cached registers
// (Figure 5b).
func HWEarly(n int) pipeline.Config {
	return pipeline.Config{
		Select:     pipeline.SelAllEarly,
		Mechanisms: []mech.Spec{{Kind: "earlycalc", Entries: n}},
	}
}

// HWDual is the hardware-only dual-path scheme steered by the
// Eickemeyer-Vassiliadis interlock heuristic (Figure 5c "no compiler").
func HWDual(entries, regs int) pipeline.Config {
	return pipeline.Config{
		Select: pipeline.SelHWDual,
		Mechanisms: []mech.Spec{
			{Kind: "addrpred", Entries: entries},
			{Kind: "earlycalc", Entries: regs},
		},
	}
}
