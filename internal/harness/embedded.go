package harness

import (
	"context"
	"fmt"
	"strings"

	"elag"
	"elag/internal/bpred"
	"elag/internal/cache"
	"elag/internal/pipeline"
	"elag/internal/workload"
)

// Section 5.4 of the paper argues compiler-directed early address
// generation suits embedded processors best: in-order cores, tight
// area/power budgets (so a 256-entry table + one register beats a
// 16-register multicast cache), and malleable instruction sets. The paper
// evaluates MediaBench on the same 6-wide core; this experiment goes one
// step further and re-runs the comparison on an embedded-class core —
// 2-wide, single memory port, 8K caches, a small 64-entry table — where
// the area argument has teeth.

// EmbeddedBase returns an embedded-class base core: 2-wide in-order, one
// memory port, 8K direct-mapped caches, a 256-entry BTB.
func EmbeddedBase() pipeline.Config {
	return pipeline.Config{
		FetchWidth:  2,
		IssueWidth:  2,
		IntALUs:     2,
		MemPorts:    1,
		FPALUs:      1,
		BranchUnits: 1,
		ICache:      cache.Config{SizeBytes: 8 << 10},
		DCache:      cache.Config{SizeBytes: 8 << 10},
		BTB:         bpred.Config{Entries: 256},
	}
}

// EmbeddedCompiler is the embedded core plus the compiler-directed
// hardware scaled to an embedded budget: a 64-entry table and one R_addr.
func EmbeddedCompiler() pipeline.Config {
	cfg := EmbeddedBase()
	cfg.Select = pipeline.SelCompiler
	cfg.Predictor = &elag.PredictorConfig{Entries: 64}
	cfg.RegCache = &elag.RegCacheConfig{Entries: 1}
	return cfg
}

// EmbeddedHWDual is the hardware-only dual-path alternative at the area
// budget the paper argues embedded designs cannot afford to exceed: the
// same 64-entry table but an 8-register multicast cache.
func EmbeddedHWDual() pipeline.Config {
	cfg := EmbeddedBase()
	cfg.Select = pipeline.SelHWDual
	cfg.Predictor = &elag.PredictorConfig{Entries: 64}
	cfg.RegCache = &elag.RegCacheConfig{Entries: 8}
	return cfg
}

// EmbeddedRow is one benchmark's result in the embedded experiment.
type EmbeddedRow struct {
	Name            string  `json:"name"`
	CompilerSpeedup float64 `json:"compiler_speedup"` // embedded compiler-directed vs embedded base
	HWDualSpeedup   float64 `json:"hw_dual_speedup"`  // embedded hardware-only dual vs embedded base
}

// Embedded runs the Section 5.4 experiment over the MediaBench suite.
func (r *Runner) Embedded(ctx context.Context) ([]EmbeddedRow, error) {
	doc, err := r.run(ctx, "embedded")
	return doc.Embedded, err
}

func embedded(doc *BenchDocument) *experiment {
	rows := make([]EmbeddedRow, len(workload.BySuite(workload.Media)))
	return &experiment{
		name:  "embedded",
		suite: workload.Media,
		cells: []cell{{EmbeddedBase(), flavProgram}, {EmbeddedCompiler(), flavHeur}, {EmbeddedHWDual(), flavProgram}},
		row:   func(i int) any { return &rows[i] },
		fill: func(i int, l *Lab, c []int64) {
			rows[i] = EmbeddedRow{
				Name:            l.W.Name,
				CompilerSpeedup: speedup(c[0], c[1]),
				HWDualSpeedup:   speedup(c[0], c[2]),
			}
		},
		finish: func() error {
			var avg EmbeddedRow
			for _, row := range rows {
				avg.CompilerSpeedup += row.CompilerSpeedup / float64(len(rows))
				avg.HWDualSpeedup += row.HWDualSpeedup / float64(len(rows))
			}
			avg.Name = "average"
			doc.Embedded = append(rows, avg)
			return nil
		},
	}
}

// FormatEmbedded renders the embedded experiment.
func FormatEmbedded(rows []EmbeddedRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Embedded core (2-wide, 1 port, 8K caches) — Section 5.4 extension\n")
	fmt.Fprintf(&b, "%-14s %16s %16s\n", "Benchmark", "compiler (64+1)", "hw-dual (64+8)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %16.2f %16.2f\n", r.Name, r.CompilerSpeedup, r.HWDualSpeedup)
	}
	return b.String()
}
