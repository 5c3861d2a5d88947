package harness

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"runtime"
	"testing"
	"time"

	"elag/internal/asm"
	"elag/internal/emu"
	"elag/internal/pipeline"
	"elag/internal/workload"
)

// ReplayBenchSchema versions the elag-bench -replaybench JSON document
// (BENCH_replay.json in the repository root); bump on any field-shape
// change. v3 adds memo_hit_rate and the memo-off entry pairs, and switches
// the per-configuration replay entries to the streaming path (the supported
// production configuration), retiring the resident-trace variants.
const ReplayBenchSchema = "elag-replaybench/v3"

// ReplayBenchResult is one microbenchmark: the timing model replaying the
// prepared SPEC traces under one configuration (or configuration batch).
type ReplayBenchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	MInstPerSec float64 `json:"minst_per_sec"`
	// PeakBytes is the peak HeapAlloc observed while one op ran on an
	// otherwise idle heap: the live-memory cost of the engine shape, which
	// is what streaming bounds (resident traces dominate it otherwise).
	PeakBytes int64 `json:"peak_bytes"`
	// MemoHitRate is block-memo hits over block entries, aggregated across
	// every simulation the entry ran (0 on -nomemo entries, where the
	// memoizer never engages).
	MemoHitRate float64 `json:"memo_hit_rate"`
}

// ReplayBenchDoc is the machine-readable replay-throughput record, the
// repository's tracked evidence for trace-replay hot-path performance.
type ReplayBenchDoc struct {
	Schema string `json:"schema"`
	// Fuel is the per-benchmark dynamic instruction budget of the
	// replayed traces.
	Fuel    int64               `json:"fuel"`
	Results []ReplayBenchResult `json:"results"`
}

// peakHeap runs fn on a freshly collected heap while sampling HeapAlloc
// every millisecond, returning the observed high-water mark in bytes.
func peakHeap(fn func() error) (int64, error) {
	runtime.GC()
	stop := make(chan struct{})
	done := make(chan struct{})
	var peak uint64
	go func() {
		defer close(done)
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak {
				peak = ms.HeapAlloc
			}
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	err := fn()
	close(stop)
	<-done
	return int64(peak), err
}

// allSpecs is the five-configuration grid of elag-sim -all: the base
// architecture plus every early-address scheme, compiler-directed last.
func allSpecs(l *Lab) []pipeline.BatchSpec {
	return []pipeline.BatchSpec{
		{Config: pipeline.PaperBase()},
		{Config: HWPredict(256)},
		{Config: HWEarly(16)},
		{Config: HWDual(256, 16)},
		{Config: CompilerDual(), Flavors: l.HeurFlavors},
	}
}

// hotLoopSrc is a fixed-address hot loop: the recurrence structure that
// basic-block timing memoization exploits. The SPEC and Media workloads
// stride their load addresses, so their block states never recur exactly
// and the memoizer audits itself off (memo_hit_rate 0, on/off parity);
// this entry measures what the fast path delivers when states do recur.
const hotLoopSrc = `
	main:	li r9, 0
		li r20, 65536
		li r21, 139264    ; NOT 64K from r20 (would alias in the D-cache)
	loop:	ld8_p r1, r20(0)
		ld8_e r2, r21(8)
		add r3, r1, r2
		st8 r3, r20(16)
		add r4, r3, 5
		mul r5, r4, 3
		xor r6, r5, 255
		and r7, r6, 7
		add r9, r9, 1
		blt r9, 100000000, loop
		halt r0
`

// ReplayBench measures trace-replay throughput over the Table-2 workload.
// All entries run the streaming path (the trace is never materialized —
// peak_bytes stays O(chunk)); labs are built outside the timed region, so
// ns/op and allocs/op measure the replay hot loop alone.
// "replay-table2" replays every SPEC benchmark under the paper's
// compiler-directed configuration, "replay-base" under the base
// architecture. "seq-all" runs the full five-configuration grid per
// benchmark the pre-batching way (one materialized emulation per cell) and
// "batch-all" the batched way (one streamed emulation shared by all cells);
// their ns/op ratio is the single-pass speedup. Every entry has a "-nomemo"
// twin with basic-block timing memoization disabled — the pair quantifies
// the memo fast path, and memo_hit_rate records how often it engaged.
// "replay-hotloop" replays a synthetic fixed-address loop (hotLoopSrc)
// where the memoizer actually engages; on the real workloads it audits
// itself off and the pairs measure its overhead floor instead.
func (r *Runner) ReplayBench(ctx context.Context) (*ReplayBenchDoc, error) {
	benches := workload.BySuite(workload.SPEC)
	chunk := r.ChunkSize
	if chunk <= 0 {
		chunk = emu.DefaultChunkSize
	}
	buildLabs := func(rr *Runner) ([]*Lab, error) {
		labs := make([]*Lab, len(benches))
		for i, w := range benches {
			l, err := rr.Lab(ctx, w)
			if err != nil {
				return nil, err
			}
			labs[i] = l
		}
		return labs, nil
	}
	// Two streaming lab sets: the memo switch is a runner property, and a
	// lab carries its runner's setting into every simulation it serves.
	rs := &Runner{Fuel: r.Fuel, ChunkSize: chunk}
	labs, err := buildLabs(rs)
	if err != nil {
		return nil, err
	}
	rsOff := &Runner{Fuel: r.Fuel, ChunkSize: chunk, NoMemo: true}
	labsOff, err := buildLabs(rsOff)
	if err != nil {
		return nil, err
	}
	var insts int64
	for _, l := range labs {
		insts += l.EmuRes.DynamicInsts
	}
	hotProg, err := asm.Assemble(hotLoopSrc)
	if err != nil {
		return nil, err
	}
	// Dry-count the loop's dynamic length under the fuel budget so the
	// hotloop entries report minst_per_sec on the same basis as the rest.
	hotRes, _, err := emu.RunTrace(hotProg, r.Fuel, false)
	if err != nil && !errors.Is(err, emu.ErrFuel) {
		return nil, err
	}

	doc := &ReplayBenchDoc{Schema: ReplayBenchSchema, Fuel: r.Fuel}
	// add times one entry: all runs one op, returning the memo counters of
	// the simulations it ran, accumulated across the validation pass and
	// every benchmark iteration (the hit rate is a ratio, so accumulation
	// is harmless). insts is the dynamic instructions one op replays.
	add := func(name string, insts int64, all func() (pipeline.MemoStats, error)) error {
		var memo pipeline.MemoStats
		op := func() error {
			st, err := all()
			if err != nil {
				return err
			}
			memo.Add(st)
			return nil
		}
		// Validate once outside the benchmark — testing.Benchmark has no
		// error channel — and sample the peak heap of one op while at it.
		peak, err := peakHeap(op)
		if err != nil {
			return err
		}
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := op(); err != nil {
					b.Fatal(err)
				}
			}
		})
		doc.Results = append(doc.Results, ReplayBenchResult{
			Name:        name,
			Iterations:  br.N,
			NsPerOp:     br.NsPerOp(),
			AllocsPerOp: br.AllocsPerOp(),
			BytesPerOp:  br.AllocedBytesPerOp(),
			MInstPerSec: float64(insts) * float64(br.N) / br.T.Seconds() / 1e6,
			PeakBytes:   peak,
			MemoHitRate: memo.HitRate(),
		})
		return nil
	}
	// overLabs lifts a per-lab simulation into one op over a lab set.
	overLabs := func(labs []*Lab, sim func(l *Lab) (pipeline.MemoStats, error)) func() (pipeline.MemoStats, error) {
		return func() (pipeline.MemoStats, error) {
			var memo pipeline.MemoStats
			for _, l := range labs {
				st, err := sim(l)
				if err != nil {
					return memo, err
				}
				memo.Add(st)
			}
			return memo, nil
		}
	}

	table2 := func(l *Lab) (pipeline.MemoStats, error) {
		m, err := l.Simulate(ctx, CompilerDual(), l.HeurFlavors)
		if err != nil {
			return pipeline.MemoStats{}, err
		}
		return m.Memo, nil
	}
	base := func(l *Lab) (pipeline.MemoStats, error) {
		m, err := l.Simulate(ctx, pipeline.PaperBase(), nil)
		if err != nil {
			return pipeline.MemoStats{}, err
		}
		return m.Memo, nil
	}
	seqAll := func(noMemo bool) func(l *Lab) (pipeline.MemoStats, error) {
		return func(l *Lab) (pipeline.MemoStats, error) {
			// The pre-batching grid engine: every cell pays its own
			// architectural execution (materialize + replay).
			var memo pipeline.MemoStats
			for _, sp := range allSpecs(l) {
				_, trace, err := emu.RunTrace(l.Prog.Machine, r.Fuel, true)
				if err != nil && !errors.Is(err, emu.ErrFuel) {
					return memo, err
				}
				sim, err := pipeline.New(sp.Config, l.Prog.Machine, sp.Flavors)
				if err != nil {
					return memo, err
				}
				sim.SetNoMemo(noMemo)
				m, err := sim.Run(trace)
				if err != nil {
					return memo, err
				}
				memo.Add(m.Memo)
			}
			return memo, nil
		}
	}
	batchAll := func(l *Lab) (pipeline.MemoStats, error) {
		// One streamed architectural execution shared by all five
		// configurations. The lab's memo setting does not reach this
		// engine, so apply it through the specs.
		var memo pipeline.MemoStats
		specs := allSpecs(l)
		for i := range specs {
			specs[i].NoMemo = l.noMemo
		}
		ms, _, err := pipeline.BatchReplayContext(ctx, l.Prog.Machine, r.Fuel, chunk, specs)
		if err != nil {
			return memo, err
		}
		for _, m := range ms {
			memo.Add(m.Memo)
		}
		return memo, nil
	}

	hotLoop := func(noMemo bool) func() (pipeline.MemoStats, error) {
		return func() (pipeline.MemoStats, error) {
			specs := []pipeline.BatchSpec{{Config: CompilerDual(), NoMemo: noMemo}}
			ms, _, err := pipeline.BatchReplayContext(ctx, hotProg, r.Fuel, chunk, specs)
			if err != nil {
				return pipeline.MemoStats{}, err
			}
			return ms[0].Memo, nil
		}
	}

	for _, e := range []struct {
		name  string
		insts int64
		all   func() (pipeline.MemoStats, error)
	}{
		{"replay-table2", insts, overLabs(labs, table2)},
		{"replay-table2-nomemo", insts, overLabs(labsOff, table2)},
		{"replay-base", insts, overLabs(labs, base)},
		{"replay-base-nomemo", insts, overLabs(labsOff, base)},
		{"seq-all", insts * 5, overLabs(labs, seqAll(false))},
		{"seq-all-nomemo", insts * 5, overLabs(labsOff, seqAll(true))},
		{"batch-all", insts * 5, overLabs(labs, batchAll)},
		{"batch-all-nomemo", insts * 5, overLabs(labsOff, batchAll)},
		{"replay-hotloop", hotRes.DynamicInsts, hotLoop(false)},
		{"replay-hotloop-nomemo", hotRes.DynamicInsts, hotLoop(true)},
	} {
		if err := add(e.name, e.insts, e.all); err != nil {
			return nil, err
		}
	}
	return doc, nil
}

// WriteReplayBenchJSON writes doc as indented JSON.
func WriteReplayBenchJSON(w io.Writer, doc *ReplayBenchDoc) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
