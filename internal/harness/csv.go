package harness

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// CSV export for downstream plotting of the reproduced tables and figures
// (elag-bench -csv).

func f2(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }

// WriteFigureCSV emits a figure as benchmark,series,speedup rows.
func WriteFigureCSV(w io.Writer, f *Figure) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"benchmark", "series", "speedup"}); err != nil {
		return err
	}
	for _, s := range f.Series {
		for _, b := range f.Benchmarks {
			if err := cw.Write([]string{b, s.Label, f2(s.Speedups[b])}); err != nil {
				return err
			}
		}
		if err := cw.Write([]string{"average", s.Label, f2(s.Average)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTable2CSV emits Table 2 (or the Table 2 half of Table 4) rows.
func WriteTable2CSV(w io.Writer, rows []Table2Row) error {
	cw := csv.NewWriter(w)
	header := []string{"benchmark", "loads_k", "static_nt", "static_pd", "static_ec",
		"dyn_nt", "dyn_pd", "dyn_ec", "rate_nt", "rate_pd"}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{r.Name, f2(r.LoadsK), f2(r.StaticNT), f2(r.StaticPD),
			f2(r.StaticEC), f2(r.DynNT), f2(r.DynPD), f2(r.DynEC),
			f2(r.RateNT), f2(r.RatePD)}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTable3CSV emits Table 3 rows.
func WriteTable3CSV(w io.Writer, rows []Table3Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"benchmark", "speedup", "static_pd", "dyn_pd",
		"rate_nt", "rate_pd"}); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write([]string{r.Name, f2(r.Speedup), f2(r.StaticPD),
			f2(r.DynPD), f2(r.RateNT), f2(r.RatePD)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTable4CSV emits Table 4 rows (Table 2 columns plus speedup).
func WriteTable4CSV(w io.Writer, rows []Table4Row) error {
	cw := csv.NewWriter(w)
	header := []string{"benchmark", "loads_k", "static_nt", "static_pd", "static_ec",
		"dyn_nt", "dyn_pd", "dyn_ec", "rate_nt", "rate_pd", "speedup"}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{r.Name, f2(r.LoadsK), f2(r.StaticNT), f2(r.StaticPD),
			f2(r.StaticEC), f2(r.DynNT), f2(r.DynPD), f2(r.DynEC),
			f2(r.RateNT), f2(r.RatePD), f2(r.Speedup)}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ExportCSV runs every tabulated experiment as one plan and writes one CSV
// per artifact via the provided create function (typically wrapping
// os.Create).
func (r *Runner) ExportCSV(ctx context.Context, create func(name string) (io.WriteCloser, error)) error {
	doc, err := r.run(ctx, "table2", "table3", "table4", "fig5a", "fig5b", "fig5c")
	if err != nil {
		return err
	}
	for _, a := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{"table2.csv", func(w io.Writer) error { return WriteTable2CSV(w, doc.Table2) }},
		{"table3.csv", func(w io.Writer) error { return WriteTable3CSV(w, doc.Table3) }},
		{"table4.csv", func(w io.Writer) error { return WriteTable4CSV(w, doc.Table4) }},
		{"fig5a.csv", func(w io.Writer) error { return WriteFigureCSV(w, doc.Figure5a) }},
		{"fig5b.csv", func(w io.Writer) error { return WriteFigureCSV(w, doc.Figure5b) }},
		{"fig5c.csv", func(w io.Writer) error { return WriteFigureCSV(w, doc.Figure5c) }},
	} {
		f, err := create(a.name)
		if err != nil {
			return err
		}
		if err := a.write(f); err != nil {
			f.Close()
			return fmt.Errorf("%s: %w", a.name, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
