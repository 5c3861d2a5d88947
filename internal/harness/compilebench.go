package harness

import (
	"context"
	"encoding/json"
	"io"
	"time"

	"elag"
	"elag/internal/passman"
	"elag/internal/workload"
)

// CompileBenchSchema versions the elag-bench -compilebench JSON document
// (BENCH_compile.json in the repository root); bump on any field-shape
// change.
const CompileBenchSchema = "elag-compilebench/v2"

// CompileBenchResult is one workload's compile-time record: end-to-end
// wall time through the default (O2) pipeline plus the pass manager's
// per-pass breakdown.
type CompileBenchResult struct {
	Workload string `json:"workload"`
	// WallNS is the end-to-end Build wall time (front end, pass pipeline,
	// codegen, assembly, classification), best of Reps runs.
	WallNS int64 `json:"wall_ns"`
	// PassWallNS is the wall time spent inside scheduled passes (the
	// pipeline portion of WallNS), from the same run.
	PassWallNS int64 `json:"pass_wall_ns"`
	// VerifyWallNS is the wall time spent verifying the IR after the
	// front end and after every pass and fixpoint member, from the same
	// run; it lies outside PassWallNS.
	VerifyWallNS int64 `json:"verify_wall_ns"`
	// Insts is the machine instruction count of the compiled program.
	Insts int `json:"insts"`
	// Passes is the per-pass breakdown in first-run order (see
	// passman.PassStat for field semantics).
	Passes []passman.PassStat `json:"passes"`
}

// CompileBenchDoc is the machine-readable compile-throughput record, the
// repository's tracked evidence for compiler performance.
type CompileBenchDoc struct {
	Schema string `json:"schema"`
	// Pipeline is the spec-like rendering of the benchmarked pipeline.
	Pipeline string `json:"pipeline"`
	// Reps is how many times each workload was compiled; every entry
	// reports its fastest rep.
	Reps    int                  `json:"reps"`
	Results []CompileBenchResult `json:"results"`
}

// CompileBench compiles every embedded workload through the default O2
// pipeline reps times (<=0 for a default of 5) and records the fastest
// end-to-end wall time with its per-pass breakdown. Best-of-N damps
// scheduler noise without long benchmark runs; the per-pass numbers come
// from the same (fastest) rep so they sum consistently.
func (r *Runner) CompileBench(ctx context.Context, reps int) (*CompileBenchDoc, error) {
	if reps <= 0 {
		reps = 5
	}
	doc := &CompileBenchDoc{Schema: CompileBenchSchema, Reps: reps}
	for _, w := range workload.All() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r.logf("compilebench %s", w.Name)
		var best CompileBenchResult
		for rep := 0; rep < reps; rep++ {
			var stats passman.Stats
			start := time.Now()
			p, err := elag.Build(w.Source, elag.BuildOptions{Stats: &stats})
			wall := time.Since(start).Nanoseconds()
			if err != nil {
				return nil, err
			}
			if rep == 0 || wall < best.WallNS {
				best = CompileBenchResult{
					Workload:     w.Name,
					WallNS:       wall,
					PassWallNS:   stats.TotalWallNS,
					VerifyWallNS: stats.VerifyWallNS,
					Insts:        len(p.Machine.Insts),
					Passes:       stats.Passes(),
				}
				doc.Pipeline = p.Pipeline
			}
		}
		doc.Results = append(doc.Results, best)
	}
	return doc, nil
}

// WriteCompileBenchJSON writes doc as indented JSON.
func WriteCompileBenchJSON(w io.Writer, doc *CompileBenchDoc) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
