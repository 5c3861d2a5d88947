package harness

import (
	"context"
	"encoding/json"
	"io"
)

// BenchSchema versions the elag-bench JSON document; bump on any
// field-shape change so an accumulating BENCH_*.json trajectory can
// dispatch per version.
const BenchSchema = "elag-bench/v1"

// BenchDocument is every experiment artifact of the paper's evaluation as
// one machine-readable document (elag-bench -json): Tables 2-4, Figures
// 5a-5c and the embedded-core extension, plus the run parameters that
// scale them.
type BenchDocument struct {
	Schema string `json:"schema"`
	// Fuel is the per-benchmark dynamic instruction budget the artifacts
	// were produced under (0 = programs ran to completion).
	Fuel     int64         `json:"fuel"`
	Table2   []Table2Row   `json:"table2"`
	Table3   []Table3Row   `json:"table3"`
	Table4   []Table4Row   `json:"table4"`
	Figure5a *Figure       `json:"figure5a"`
	Figure5b *Figure       `json:"figure5b"`
	Figure5c *Figure       `json:"figure5c"`
	Embedded []EmbeddedRow `json:"embedded"`
	// FigureMech is the mechanism-layer extension figure. It is produced
	// only by DocumentExp("figmech") — not by Document — and is omitted
	// from the JSON when absent, so full-evaluation artifacts remain
	// byte-identical to pre-mechanism-layer runs.
	FigureMech *Figure `json:"figuremech,omitempty"`
}

// Document runs every experiment as one plan and collects the artifacts:
// each benchmark is profiled once and replays all of its cells in one
// streamed pass.
func (r *Runner) Document(ctx context.Context) (*BenchDocument, error) {
	return r.DocumentExp(ctx, "all")
}

// DocumentExp runs one named experiment into an otherwise-empty document
// ("" or "all" runs everything, same as Document). Narrow documents share
// the full document's per-row artifact cache when Runner.Artifacts is
// set: running "all" warms every narrower selection and vice versa.
func (r *Runner) DocumentExp(ctx context.Context, exp string) (*BenchDocument, error) {
	names := []string{exp}
	if exp == "" || exp == "all" {
		names = documentExps
	}
	doc, err := r.run(ctx, names...)
	if err != nil {
		return nil, err
	}
	return doc, nil
}

// WriteBenchJSON writes doc as indented JSON. Output is byte-stable for a
// given document (map keys are emitted sorted).
func WriteBenchJSON(w io.Writer, doc *BenchDocument) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
