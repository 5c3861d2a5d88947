package harness

import (
	"encoding/json"

	"elag/internal/artifact"
	"elag/internal/workload"
)

// Per-row grid caching: every grid experiment is a set of independent
// per-benchmark rows, each a pure function of (experiment, series shape,
// benchmark source, fuel, chunk size). With Runner.Artifacts attached,
// the planner keys each row canonically, decodes the rows the store
// already has, and plans only the missing ones — so a grid that overlaps
// a previous one (a re-run, a narrower experiment selection, a different
// tool sharing the store) recomputes exactly the rows it lacks. Averages are recomputed from the
// restored rows; since JSON round-trips float64 exactly, a document
// assembled from cached rows is byte-identical to a cold one.

// rowKeySchema versions the row-key derivation and the row shapes
// together; bump on any change to either. v2: chunk 0 stopped meaning
// "materialized" and now means the default streamed chunk.
const rowKeySchema = "elag-grid-row/v2"

// rowKey derives the content-address of one benchmark's row. exp names
// the experiment ("table2", "fig5a", ...); extra carries experiment
// shape beyond the name (figure series labels), so a series change
// misses cleanly. The benchmark is keyed by name and source — editing a
// workload invalidates its rows. BenchSchema participates so a document
// shape bump invalidates everything. Parallelism, batching and kernel
// specialization are excluded: results are byte-identical at every
// setting (DESIGN.md §10/§11/§15).
func (r *Runner) rowKey(exp string, extra []string, w *workload.Workload) artifact.Key {
	d := artifact.NewDigest(rowKeySchema)
	d.Str("bench_schema", BenchSchema)
	d.Str("exp", exp)
	for _, e := range extra {
		d.Str("series", e)
	}
	d.Str("bench", w.Name)
	d.Str("source", w.Source)
	d.Int("fuel", r.Fuel)
	d.Int("chunk", int64(r.ChunkSize))
	return d.Key()
}

// cachedRow decodes experiment e's row for w from the store into slot,
// reporting whether it was there.
func (r *Runner) cachedRow(e *experiment, w *workload.Workload, slot any) bool {
	if r.Artifacts == nil {
		return false
	}
	data, ok := r.Artifacts.Get(r.rowKey(e.name, e.series, w))
	return ok && json.Unmarshal(data, slot) == nil
}

// putRow stores experiment e's computed row for w.
func (r *Runner) putRow(e *experiment, w *workload.Workload, slot any) {
	if r.Artifacts == nil {
		return
	}
	if data, err := json.Marshal(slot); err == nil {
		r.Artifacts.Put(r.rowKey(e.name, e.series, w), data)
	}
}
