package passman

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// PassStat accumulates the activity of one named pass across a pipeline
// run: how often it ran, how often it reported a change, the instruction
// counts around its first and last run, and its total wall time.
type PassStat struct {
	// Name is the pass name.
	Name string `json:"name"`
	// Kind is the pass kind ("ir", "lower", "machine").
	Kind string `json:"kind"`
	// Runs counts invocations (a fixpoint member runs once per function
	// per iteration).
	Runs int `json:"runs"`
	// Changed counts the invocations that reported a change.
	Changed int `json:"changed"`
	// InstsBefore is the instruction count before the pass's first run.
	InstsBefore int `json:"insts_before"`
	// InstsAfter is the instruction count after the pass's last run.
	InstsAfter int `json:"insts_after"`
	// Removed is the net instruction reduction summed over runs
	// (negative when the pass grows code, as inlining does).
	Removed int `json:"removed"`
	// WallNS is the total wall time spent in the pass, in nanoseconds.
	WallNS int64 `json:"wall_ns"`
}

// Stats collects per-pass counters for one pipeline run. The zero value is
// ready to use.
type Stats struct {
	order []string
	byN   map[string]*PassStat
	// TotalWallNS is the wall time summed over every pass run.
	TotalWallNS int64
	// VerifyWallNS is the wall time spent in ir.Verify and ir.VerifyFunc
	// between passes; it is not part of any pass's wall time.
	VerifyWallNS int64
}

func (s *Stats) record(name string, kind Kind, changed bool, before, after int, wall time.Duration) {
	if s.byN == nil {
		s.byN = make(map[string]*PassStat)
	}
	ps := s.byN[name]
	if ps == nil {
		ps = &PassStat{Name: name, Kind: kind.String(), InstsBefore: before}
		s.byN[name] = ps
		s.order = append(s.order, name)
	}
	ps.Runs++
	if changed {
		ps.Changed++
	}
	ps.InstsAfter = after
	ps.Removed += before - after
	ps.WallNS += wall.Nanoseconds()
	s.TotalWallNS += wall.Nanoseconds()
}

// Passes returns the per-pass stats in first-run order.
func (s *Stats) Passes() []PassStat {
	out := make([]PassStat, 0, len(s.order))
	for _, n := range s.order {
		out = append(out, *s.byN[n])
	}
	return out
}

// StatsDoc is the schema-versioned machine-readable form of a pipeline
// run's statistics.
type StatsDoc struct {
	// Schema identifies the document format.
	Schema string `json:"schema"`
	// Program labels the compiled program.
	Program string `json:"program"`
	// Pipeline is the spec-like rendering of the pipeline that ran.
	Pipeline string `json:"pipeline"`
	// Passes is the per-pass breakdown, in first-run order.
	Passes []PassStat `json:"passes"`
	// TotalWallNS is the wall time summed over every pass run.
	TotalWallNS int64 `json:"total_wall_ns"`
}

// StatsSchema is the schema tag of StatsDoc.
const StatsSchema = "elag-passes/v1"

// NewStatsDoc wraps collected stats in the exportable document.
func NewStatsDoc(program, pipeline string, s *Stats) *StatsDoc {
	return &StatsDoc{
		Schema:      StatsSchema,
		Program:     program,
		Pipeline:    pipeline,
		Passes:      s.Passes(),
		TotalWallNS: s.TotalWallNS,
	}
}

// WriteStatsJSON writes the document as indented JSON.
func WriteStatsJSON(w io.Writer, doc *StatsDoc) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// Summary renders a human-readable per-pass table.
func (s *Stats) Summary() string {
	out := fmt.Sprintf("%-12s %-7s %5s %7s %8s %8s %10s\n",
		"pass", "kind", "runs", "changed", "insts>", ">insts", "wall")
	for _, ps := range s.Passes() {
		out += fmt.Sprintf("%-12s %-7s %5d %7d %8d %8d %10s\n",
			ps.Name, ps.Kind, ps.Runs, ps.Changed, ps.InstsBefore, ps.InstsAfter,
			time.Duration(ps.WallNS).Round(time.Microsecond))
	}
	out += fmt.Sprintf("total %s\n", time.Duration(s.TotalWallNS).Round(time.Microsecond))
	return out
}
