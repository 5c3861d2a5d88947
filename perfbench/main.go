// Command perfbench is the repository benchmark. It runs one workload —
// paper-grid, sim-stream or serve-mix — for a fixed window from a single
// process, checks that every output is correct, prints each metric by
// name with its unit on standard error, and prints one JSON result line
// as the last line of standard output. See README.md for what each
// workload and metric is for.
//
//	go build -o perfbench . && ./perfbench --root .. --workload sim-stream --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1
// reports the per-layer metrics: it runs an untraced window, then a
// traced one that records spans around each call into a layer, and
// writes the spans to .bench_build/spans/ under --root.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are one invocation's settings.
type options struct {
	Workload string
	Seed     int64
	Window   time.Duration
	Trace    bool
	// Root is the repository root: inputs such as testdata/stress.mc are
	// read from it and spans are written under it.
	Root string
	Size sizes
}

// sizes scale the workloads. fullSizes is the benchmark; tinySizes is the
// dry run the tests use.
type sizes struct {
	SetupReps  int   // set-ups per run; setup_s is their median
	GridFuel   int64 // paper-grid per-benchmark fuel
	StressFuel int64 // sim-stream fuel on testdata/stress.mc
	SimSample  int   // suite workloads per sim-stream op, run to completion
	SimFuel    int64 // fuel for those workloads; 0 runs them to completion
	ServeFuel  int64 // serve-mix named-workload fuel
	ServeRate  int   // serve-mix jobs per second of window: the stream length
	ServeSplit int   // distinct specs the traced serve-mix run replays itself
}

func fullSizes() sizes {
	return sizes{SetupReps: 5, GridFuel: 2_000_000, StressFuel: 20_000_000, SimSample: 6,
		ServeFuel: 2_000_000, ServeRate: 50, ServeSplit: 24}
}

func tinySizes() sizes {
	return sizes{SetupReps: 2, GridFuel: 3_000, StressFuel: 20_000, SimSample: 2, SimFuel: 20_000,
		ServeFuel: 4_000, ServeRate: 200, ServeSplit: 4}
}

// bench is one set-up workload instance.
type bench interface {
	// measure runs ops for about d and reports them. With tr nil it is
	// the timed, untraced run: ops repeat until d has passed, at least
	// one. With tr set it runs the traced ops and the calls that split
	// opaque layers.
	// hs, when set, samples the heap; a workload whose ops run one at a
	// time cuts it after each op.
	measure(ctx context.Context, d time.Duration, tr *tracer, hs *heapSampler) (*window, error)
	close() error
}

// carrier is a bench whose traced run takes state from the untraced one,
// such as the outputs its checks compare with.
type carrier interface {
	carry(untraced bench)
}

// workloadDef names a workload and how to set it up.
type workloadDef struct {
	name  string
	setup func(ctx context.Context, o *options) (bench, error)
}

var workloads = []workloadDef{
	{"paper-grid", setupGrid},
	{"sim-stream", setupSim},
	{"serve-mix", setupServe},
}

// window is what one measure call observed.
type window struct {
	attempted, failed int
	// opMS holds each op's latency; op_p50_ms is their median.
	opMS []float64
	// opsPerSec and minstPerSec are the window's throughputs.
	opsPerSec, minstPerSec float64
	// tracedMS and untracedMS give a traced window's trace.overhead_frac:
	// the time of its traced ops against the time of the same work
	// untraced (ms). A workload whose traced op repeats an untraced op
	// leaves untracedMS 0, and the untraced median op stands in.
	tracedMS, untracedMS float64
	// layers holds per-layer metrics the workload measures directly:
	// work counts, model statistics and service statistics.
	layers map[string]float64
	// notes are printed on standard error: failed checks and digests.
	notes []string
}

func (w *window) fail(format string, args ...any) {
	w.failed++
	w.notes = append(w.notes, "FAILED: "+fmt.Sprintf(format, args...))
}

func (w *window) note(format string, args ...any) {
	w.notes = append(w.notes, fmt.Sprintf(format, args...))
}

// result is the JSON line a run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "paper-grid | sim-stream | serve-mix")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measurement window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	root := fs.String("root", ".", "repository root")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	o := &options{Workload: *name, Seed: *seed, Window: time.Duration(*seconds * float64(time.Second)),
		Trace: *trace == 1, Root: *root, Size: fullSizes()}
	res, err := runWorkload(context.Background(), o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runWorkload sets the workload up SetupReps times, runs the untraced
// window, and for a traced run sets up once more and runs the traced one.
func runWorkload(ctx context.Context, o *options, log io.Writer) (*result, error) {
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == o.Workload {
			def = &workloads[i]
		}
	}
	if def == nil {
		return nil, fmt.Errorf("unknown workload %q (want paper-grid, sim-stream or serve-mix)", o.Workload)
	}

	var setupS []float64
	var b bench
	for i := 0; i < o.Size.SetupReps; i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t := time.Now()
		nb, err := def.setup(ctx, o)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", o.Workload, err)
		}
		setupS = append(setupS, time.Since(t).Seconds())
		b = nb
	}

	runtime.GC()
	heap := startHeapSampler()
	w, err := b.measure(ctx, o.Window, nil, heap)
	peak := heap.stop()
	if cerr := b.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.Workload, err)
	}

	e2e := map[string]float64{
		"setup_s":         median(setupS),
		"op_p50_ms":       median(w.opMS),
		"ops_per_s":       w.opsPerSec,
		"sim_minst_per_s": w.minstPerSec,
		"peak_heap_mb":    peak / (1 << 20),
	}
	res := &result{Attempted: w.attempted, Failed: w.failed, Metrics: map[string]metricValue{}}
	fmt.Fprintf(log, "perfbench %s seed=%d window=%s trace=%v\n", o.Workload, o.Seed, o.Window, o.Trace)
	printEndToEnd(log, e2e, len(setupS), w.opMS)

	if !o.Trace {
		for _, d := range endToEnd {
			res.Metrics[d.Name] = metricValue{e2e[d.Name], d.Unit}
		}
	} else {
		tb, err := def.setup(ctx, o)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", o.Workload, err)
		}
		if c, ok := tb.(carrier); ok {
			c.carry(b)
		}
		runtime.GC()
		tr := newTracer()
		tw, err := tb.measure(ctx, o.Window, tr, nil)
		if cerr := tb.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("%s: traced run: %w", o.Workload, err)
		}
		spans, ops, counts := tr.snapshot()
		bd, err := analyze(spans, ops)
		if err != nil {
			return nil, fmt.Errorf("%s: traced run: %w", o.Workload, err)
		}
		layers := layerMetrics(bd, counts, tw)
		untraced := tw.untracedMS
		if untraced == 0 {
			untraced = e2e["op_p50_ms"]
		}
		layers["trace.overhead_frac"] = ratio(tw.tracedMS, untraced) - 1
		if err := writeSpans(o, tr); err != nil {
			return nil, err
		}
		printLayers(log, bd, layers)
		for _, d := range perLayer {
			res.Metrics[d.Name] = metricValue{layers[d.Name], d.Unit}
		}
		res.Attempted += tw.attempted
		res.Failed += tw.failed
		w.notes = append(w.notes, tw.notes...)
	}
	for _, n := range w.notes {
		fmt.Fprintln(log, n)
	}
	fmt.Fprintf(log, "%-28s %14.4f %-9s (%d failed of %d attempted)\n", "error_rate",
		ratio(float64(res.Failed), float64(res.Attempted)), "ratio", res.Failed, res.Attempted)
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("%s: metric %s is %v", o.Workload, name, m.Value)
		}
	}
	return res, nil
}

// printEndToEnd prints every end-to-end metric with its unit; op latency
// also gets its sample count and the highest percentile that has at least
// minBeyond samples above it.
func printEndToEnd(w io.Writer, e2e map[string]float64, setups int, opMS []float64) {
	for _, d := range endToEnd {
		extra := ""
		switch d.Name {
		case "setup_s":
			extra = fmt.Sprintf("median of %d", setups)
		case "op_p50_ms":
			extra = fmt.Sprintf("median of %d ops", len(opMS))
			if p, ok := tailPercentile(len(opMS)); ok && p > 50 {
				extra += fmt.Sprintf(", p%g %.3f ms", p, percentile(opMS, p))
			} else {
				extra += ", no tail percentile has 10 samples beyond it"
			}
		}
		fmt.Fprintf(w, "%-28s %14.4f %-9s %s\n", d.Name, e2e[d.Name], d.Unit, extra)
	}
}

// printLayers prints the self-time table of the traced run, whose rows sum
// to op wall time, then every per-layer metric.
func printLayers(w io.Writer, bd breakdown, layers map[string]float64) {
	names := make([]string, 0, len(bd.Self))
	for n := range bd.Self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return bd.Self[names[i]] > bd.Self[names[j]] })
	wall := bd.totalWall()
	fmt.Fprintf(w, "traced self time by layer (sums to op wall):\n")
	var total int64
	for _, n := range names {
		total += bd.Self[n]
		fmt.Fprintf(w, "  %-26s %10.3f s %6.2f%% %8d calls\n", n, float64(bd.Self[n])/1e9,
			100*ratio(float64(bd.Self[n]), float64(wall)), bd.Calls[n])
	}
	fmt.Fprintf(w, "  %-26s %10.3f s (op wall %.3f s)\n", "sum", float64(total)/1e9, float64(wall)/1e9)
	for _, d := range perLayer {
		fmt.Fprintf(w, "%-28s %14.4f %s\n", d.Name, layers[d.Name], d.Unit)
	}
}

// writeSpans writes the traced run's spans under Root/.bench_build.
func writeSpans(o *options, tr *tracer) error {
	dir := filepath.Join(o.Root, ".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("spans-%s-%d.json", o.Workload, o.Seed)))
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := tr.write(f); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// layerMetrics turns a traced run's self times and counts into the
// per-layer metrics. Self times are divided by the work counts recorded at
// the same span boundaries.
func layerMetrics(bd breakdown, counts map[string]int64, w *window) map[string]float64 {
	self := func(layer string) float64 { return float64(bd.Self[layer]) }
	perCall := func(layer string) float64 { return ratio(self(layer), float64(bd.Calls[layer])) }
	cnt := func(name string) float64 { return float64(counts[name]) }

	m := map[string]float64{
		"passman.build_ms":    perCall("passman.build") / 1e6,
		"passman.us_per_inst": ratio(self("passman.build"), cnt("passman.insts")) / 1e3,
		"core.reclassify_us":  perCall("core.reclassify") / 1e3,
		"profile.ns_per_inst": ratio(self("profile.collect"), cnt("profile.insts")),
		"emu.ns_per_inst":     ratio(self("emu.stream"), cnt("emu.insts")),
		"emu.insts":           cnt("emu.insts"),
		"harness.lab_build_s": self("harness.lab") / 1e9,
		"harness.encode_ms":   self("harness.encode") / 1e6,
		"trace.other_frac":    ratio(self(otherLayer), float64(bd.totalWall())),
	}
	pipeNS, simInsts := self("pipeline.new_batch"), 0.0
	for _, l := range pipelineLayers {
		n := cnt("pipeline." + l + ".insts")
		m["pipeline."+l+".ns_per_inst"] = ratio(self("pipeline."+l), n)
		pipeNS += self("pipeline." + l)
		simInsts += n
	}
	m["pipeline.ns_per_sim_inst"] = ratio(pipeNS, simInsts)
	m["pipeline.sim_insts"] = simInsts
	m["pipeline.batch_width"] = ratio(simInsts, cnt("emu.insts"))
	for _, e := range experiments {
		m["harness.exp."+e+"_s"] = self("harness.exp."+e) / 1e9
	}
	for k, v := range w.layers {
		m[k] = v
	}
	for _, d := range perLayer {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = 0 // the workload does not exercise this layer
		}
	}
	return m
}

// heapSampler tracks the largest live heap the garbage collector found
// while a window runs. Live heap depends less on when collections run than
// allocated heap does, but a small heap still moves with collection timing,
// so a window of several ops is cut into one segment per op and reports
// the median of the segments' peaks. A window with no cuts, such as a
// server's, reports its whole peak, including a final collection that
// counts what the window left live.
type heapSampler struct {
	stopc chan struct{}
	done  sync.WaitGroup

	mu   sync.Mutex
	peak uint64   // of the open segment
	segs []uint64 // peaks of the closed segments
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			h.sample()
			select {
			case <-h.stopc:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	h.mu.Lock()
	h.peak = max(h.peak, s[0].Value.Uint64())
	h.mu.Unlock()
}

// cut closes the current segment at the end of an op. nil-safe: traced
// windows are not sampled.
func (h *heapSampler) cut() {
	if h == nil {
		return
	}
	h.sample()
	h.mu.Lock()
	h.segs = append(h.segs, h.peak)
	h.peak = 0
	h.mu.Unlock()
}

// stop ends sampling and returns the window's peak in bytes.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	h.done.Wait()
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.segs) > 0 {
		segs := make([]float64, len(h.segs))
		for i, v := range h.segs {
			segs[i] = float64(v)
		}
		return median(segs)
	}
	runtime.GC()
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return float64(max(h.peak, s[0].Value.Uint64()))
}

// another reports whether a window that started at start and has run the
// ops in opMS should start one more: always before the first op, never
// after an op failed before any succeeded, and otherwise only if an op of
// median length would end no later than half an op past d. Runs then stay
// near d whether ops are short or long.
func another(start time.Time, d time.Duration, attempted int, opMS []float64) bool {
	if attempted == 0 {
		return true
	}
	if len(opMS) == 0 {
		return false
	}
	return time.Since(start)+time.Duration(median(opMS)/2*float64(time.Millisecond)) <= d
}
