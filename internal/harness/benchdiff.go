package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Perf-regression gate: BenchDiff compares two bench documents — two
// elag-replaybench/v4, elag-compilebench/v1, or elag-servebench/v1
// files — entry by entry, and reports every metric whose regression
// exceeds a threshold. CI runs it against the checked-in baselines
// (BENCH_replay.json, BENCH_compile.json, BENCH_serve.json) so a
// hot-path regression fails the build with the
// exact entry and metric named, instead of surfacing weeks later as "the
// grid got slow".
//
// The schemas are sniffed from the documents' own schema fields; mixing
// schemas, or comparing runs with different fuel budgets, is an error —
// a 500k-fuel run "beating" a 2M-fuel baseline is not a comparison.

// DiffMetric is one compared metric of one entry.
type DiffMetric struct {
	// Name is the metric's JSON field name (ns_per_op, wall_ns, ...).
	Name string
	// Old and New are the baseline and candidate values.
	Old, New float64
	// Delta is the relative change in the regression direction: positive
	// means worse, whatever the metric's polarity (minst_per_sec going
	// DOWN is a positive Delta).
	Delta float64
	// Regressed is true when Delta exceeded the threshold.
	Regressed bool
}

// DiffEntry is the comparison of one named bench entry.
type DiffEntry struct {
	// Name identifies the entry (replay bench name or compile workload).
	Name string
	// Metrics holds the per-metric deltas, in declaration order.
	Metrics []DiffMetric
	// Missing marks entries present in only one document (counted as a
	// structural error, not a regression).
	Missing string // "", "baseline", or "candidate"
}

// DiffReport is the full result of one BenchDiff run.
type DiffReport struct {
	// Schema is the shared schema of both documents.
	Schema string
	// Threshold is the relative regression bound applied (0.15 = 15%).
	Threshold float64
	// Entries holds per-entry comparisons in baseline order, followed by
	// candidate-only entries.
	Entries []DiffEntry
}

// Regressions returns the entries with at least one regressed metric or a
// missing counterpart.
func (d *DiffReport) Regressions() []DiffEntry {
	var out []DiffEntry
	for _, e := range d.Entries {
		if e.Missing != "" {
			out = append(out, e)
			continue
		}
		for _, m := range e.Metrics {
			if m.Regressed {
				out = append(out, e)
				break
			}
		}
	}
	return out
}

// benchMetric describes how to compare one metric: its field name, how to
// read it, and its polarity (higherIsBetter inverts the regression
// direction — throughput falling is the regression).
type benchMetric struct {
	name           string
	higherIsBetter bool
	read           func(any) float64
}

// relDelta returns the relative regression of new vs old in the metric's
// regression direction. A zero baseline compares by presence: any nonzero
// candidate on a zero baseline is an infinite relative change, reported
// as +Inf (regressed) when it moved in the bad direction.
func relDelta(old, new float64, higherIsBetter bool) float64 {
	if higherIsBetter {
		old, new = -old, -new // now "bigger new" is worse for both polarities
	}
	diff := new - old
	base := math.Abs(old)
	if base == 0 {
		if diff == 0 {
			return 0
		}
		return math.Inf(int(math.Copysign(1, diff)))
	}
	return diff / base
}

// sniffSchema decodes just the schema field.
func sniffSchema(raw []byte, path string) (string, error) {
	var head struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(raw, &head); err != nil {
		return "", fmt.Errorf("%s: %w", path, err)
	}
	if head.Schema == "" {
		return "", fmt.Errorf("%s: no schema field — not a bench document", path)
	}
	return head.Schema, nil
}

// BenchDiffFiles loads two bench documents and compares them; see
// BenchDiff.
func BenchDiffFiles(oldPath, newPath string, threshold float64) (*DiffReport, error) {
	oldRaw, err := os.ReadFile(oldPath)
	if err != nil {
		return nil, err
	}
	newRaw, err := os.ReadFile(newPath)
	if err != nil {
		return nil, err
	}
	return BenchDiff(oldRaw, newRaw, oldPath, newPath, threshold)
}

// BenchDiff compares baseline oldRaw against candidate newRaw. Both must
// carry the same schema (elag-replaybench/v4 or elag-compilebench/v1);
// replay documents must additionally agree on fuel. threshold <= 0 takes
// the 0.15 default.
func BenchDiff(oldRaw, newRaw []byte, oldPath, newPath string, threshold float64) (*DiffReport, error) {
	if threshold <= 0 {
		threshold = 0.15
	}
	oldSchema, err := sniffSchema(oldRaw, oldPath)
	if err != nil {
		return nil, err
	}
	newSchema, err := sniffSchema(newRaw, newPath)
	if err != nil {
		return nil, err
	}
	if oldSchema != newSchema {
		return nil, fmt.Errorf("schema mismatch: %s is %s, %s is %s",
			oldPath, oldSchema, newPath, newSchema)
	}
	switch oldSchema {
	case ReplayBenchSchema:
		return diffReplay(oldRaw, newRaw, oldPath, newPath, threshold)
	case CompileBenchSchema:
		return diffCompile(oldRaw, newRaw, threshold)
	case ServeBenchSchema:
		return diffServe(oldRaw, newRaw, oldPath, newPath, threshold)
	}
	return nil, fmt.Errorf("unsupported bench schema %q (want %s, %s, or %s)",
		oldSchema, ReplayBenchSchema, CompileBenchSchema, ServeBenchSchema)
}

// replayMetrics are the gated metrics of a replay bench entry. MInstPerSec
// is throughput (higher is better); the rest are costs.
var replayMetrics = []benchMetric{
	{"ns_per_op", false, func(v any) float64 { return float64(v.(ReplayBenchResult).NsPerOp) }},
	{"allocs_per_op", false, func(v any) float64 { return float64(v.(ReplayBenchResult).AllocsPerOp) }},
	{"bytes_per_op", false, func(v any) float64 { return float64(v.(ReplayBenchResult).BytesPerOp) }},
	{"minst_per_sec", true, func(v any) float64 { return v.(ReplayBenchResult).MInstPerSec }},
	{"peak_bytes", false, func(v any) float64 { return float64(v.(ReplayBenchResult).PeakBytes) }},
}

func diffReplay(oldRaw, newRaw []byte, oldPath, newPath string, threshold float64) (*DiffReport, error) {
	var oldDoc, newDoc ReplayBenchDoc
	if err := json.Unmarshal(oldRaw, &oldDoc); err != nil {
		return nil, fmt.Errorf("%s: %w", oldPath, err)
	}
	if err := json.Unmarshal(newRaw, &newDoc); err != nil {
		return nil, fmt.Errorf("%s: %w", newPath, err)
	}
	if oldDoc.Fuel != newDoc.Fuel {
		return nil, fmt.Errorf("fuel mismatch: %s ran %d, %s ran %d — per-op costs are not comparable across budgets",
			oldPath, oldDoc.Fuel, newPath, newDoc.Fuel)
	}
	oldBy := map[string]ReplayBenchResult{}
	for _, r := range oldDoc.Results {
		oldBy[r.Name] = r
	}
	newBy := map[string]ReplayBenchResult{}
	for _, r := range newDoc.Results {
		newBy[r.Name] = r
	}
	rep := &DiffReport{Schema: ReplayBenchSchema, Threshold: threshold}
	for _, o := range oldDoc.Results {
		n, ok := newBy[o.Name]
		if !ok {
			rep.Entries = append(rep.Entries, DiffEntry{Name: o.Name, Missing: "candidate"})
			continue
		}
		rep.Entries = append(rep.Entries, diffEntry(o.Name, o, n, replayMetrics, threshold))
	}
	rep.Entries = append(rep.Entries, onlyIn(newDoc.Results, oldBy)...)
	return rep, nil
}

// compileMetrics gate the end-to-end and in-pipeline compile wall times.
// Allocation counts are not recorded by the compile bench; wall time is
// the contract.
var compileMetrics = []benchMetric{
	{"wall_ns", false, func(v any) float64 { return float64(v.(CompileBenchResult).WallNS) }},
	{"pass_wall_ns", false, func(v any) float64 { return float64(v.(CompileBenchResult).PassWallNS) }},
}

func diffCompile(oldRaw, newRaw []byte, threshold float64) (*DiffReport, error) {
	var oldDoc, newDoc CompileBenchDoc
	if err := json.Unmarshal(oldRaw, &oldDoc); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(newRaw, &newDoc); err != nil {
		return nil, err
	}
	oldBy := map[string]CompileBenchResult{}
	for _, r := range oldDoc.Results {
		oldBy[r.Workload] = r
	}
	newBy := map[string]CompileBenchResult{}
	for _, r := range newDoc.Results {
		newBy[r.Workload] = r
	}
	rep := &DiffReport{Schema: CompileBenchSchema, Threshold: threshold}
	for _, o := range oldDoc.Results {
		n, ok := newBy[o.Workload]
		if !ok {
			rep.Entries = append(rep.Entries, DiffEntry{Name: o.Workload, Missing: "candidate"})
			continue
		}
		rep.Entries = append(rep.Entries, diffEntry(o.Workload, o, n, compileMetrics, threshold))
	}
	var extra []DiffEntry
	for _, r := range newDoc.Results {
		if _, ok := oldBy[r.Workload]; !ok {
			extra = append(extra, DiffEntry{Name: r.Workload, Missing: "baseline"})
		}
	}
	sort.Slice(extra, func(i, j int) bool { return extra[i].Name < extra[j].Name })
	rep.Entries = append(rep.Entries, extra...)
	return rep, nil
}

// serveMetrics gate the cold service path and the byte-identity bit.
// Warm wall time and speedup are recorded in the document but not gated
// relatively: warm ops are microsecond-scale store lookups, where a 15%
// relative bound is pure noise — CI asserts the absolute >= 20x speedup
// floor instead. identical is a boolean read as 1/0, so a true -> false
// flip shows up as an infinite regression.
var serveMetrics = []benchMetric{
	{"cold_wall_ns", false, func(v any) float64 { return float64(v.(ServeBenchResult).ColdWallNS) }},
	{"identical", true, func(v any) float64 {
		if v.(ServeBenchResult).Identical {
			return 1
		}
		return 0
	}},
}

func diffServe(oldRaw, newRaw []byte, oldPath, newPath string, threshold float64) (*DiffReport, error) {
	var oldDoc, newDoc ServeBenchDoc
	if err := json.Unmarshal(oldRaw, &oldDoc); err != nil {
		return nil, fmt.Errorf("%s: %w", oldPath, err)
	}
	if err := json.Unmarshal(newRaw, &newDoc); err != nil {
		return nil, fmt.Errorf("%s: %w", newPath, err)
	}
	if oldDoc.Fuel != newDoc.Fuel {
		return nil, fmt.Errorf("fuel mismatch: %s ran %d, %s ran %d — wall times are not comparable across budgets",
			oldPath, oldDoc.Fuel, newPath, newDoc.Fuel)
	}
	oldBy := map[string]ServeBenchResult{}
	for _, r := range oldDoc.Results {
		oldBy[r.Name] = r
	}
	newBy := map[string]ServeBenchResult{}
	for _, r := range newDoc.Results {
		newBy[r.Name] = r
	}
	rep := &DiffReport{Schema: ServeBenchSchema, Threshold: threshold}
	for _, o := range oldDoc.Results {
		n, ok := newBy[o.Name]
		if !ok {
			rep.Entries = append(rep.Entries, DiffEntry{Name: o.Name, Missing: "candidate"})
			continue
		}
		rep.Entries = append(rep.Entries, diffEntry(o.Name, o, n, serveMetrics, threshold))
	}
	var extra []DiffEntry
	for _, r := range newDoc.Results {
		if _, ok := oldBy[r.Name]; !ok {
			extra = append(extra, DiffEntry{Name: r.Name, Missing: "baseline"})
		}
	}
	sort.Slice(extra, func(i, j int) bool { return extra[i].Name < extra[j].Name })
	rep.Entries = append(rep.Entries, extra...)
	return rep, nil
}

func onlyIn(results []ReplayBenchResult, oldBy map[string]ReplayBenchResult) []DiffEntry {
	var extra []DiffEntry
	for _, r := range results {
		if _, ok := oldBy[r.Name]; !ok {
			extra = append(extra, DiffEntry{Name: r.Name, Missing: "baseline"})
		}
	}
	sort.Slice(extra, func(i, j int) bool { return extra[i].Name < extra[j].Name })
	return extra
}

func diffEntry(name string, o, n any, metrics []benchMetric, threshold float64) DiffEntry {
	e := DiffEntry{Name: name}
	for _, m := range metrics {
		ov, nv := m.read(o), m.read(n)
		d := relDelta(ov, nv, m.higherIsBetter)
		e.Metrics = append(e.Metrics, DiffMetric{
			Name: m.name, Old: ov, New: nv,
			Delta: d, Regressed: d > threshold,
		})
	}
	return e
}

// WriteDiffReport renders the report as a fixed-width table: one line per
// (entry, metric) with the signed relative change, regressions flagged.
// Returns the number of regressed entries (missing counterparts included),
// which is the gate's exit criterion.
func WriteDiffReport(w io.Writer, d *DiffReport) int {
	fmt.Fprintf(w, "bench diff (%s, threshold %.0f%%)\n", d.Schema, d.Threshold*100)
	bad := 0
	for _, e := range d.Entries {
		if e.Missing != "" {
			fmt.Fprintf(w, "  %-16s MISSING from %s\n", e.Name, e.Missing)
			bad++
			continue
		}
		regressed := false
		for _, m := range e.Metrics {
			flag := ""
			if m.Regressed {
				flag = "  << REGRESSED"
				regressed = true
			}
			// Delta is reported in the regression direction; re-sign it
			// to the metric's natural direction for display.
			fmt.Fprintf(w, "  %-16s %-14s %14.4g -> %-14.4g %+7.1f%%%s\n",
				e.Name, m.Name, m.Old, m.New, 100*rawChange(m), flag)
		}
		if regressed {
			bad++
		}
	}
	if bad == 0 {
		fmt.Fprintln(w, "  no regressions")
	}
	return bad
}

// rawChange is the display-direction relative change (new vs old), +Inf
// clamped for zero baselines.
func rawChange(m DiffMetric) float64 {
	if m.Old == 0 {
		if m.New == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (m.New - m.Old) / math.Abs(m.Old)
}
