package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"elag/internal/harness"
)

// metricName is the shape every metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, metricName)
		}
		if seen[d.Name] {
			t.Errorf("metric name %q is used twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json lists exactly the workloads
// and metrics the benchmark reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %+v\nbenchmark reports %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %+v\nbenchmark reports %+v", doc.PerLayer, perLayer)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{0, 0, false}, {19, 0, false}, {20, 50, true}, {39, 50, true}, {40, 75, true},
		{99, 75, true}, {100, 90, true}, {199, 90, true}, {200, 95, true},
		{999, 95, true}, {1000, 99, true}, {10000, 99.9, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.p || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.p, c.ok)
		}
	}
	// Whatever it reports has at least minBeyond samples above it.
	for n := 1; n <= 3000; n++ {
		p, ok := tailPercentile(n)
		if !ok {
			continue
		}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		v := percentile(xs, p)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Fatalf("n=%d: p%v = %v has %d samples beyond it", n, p, v, beyond)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}

// TestGridCellInsts checks the cell count behind paper-grid's rate: one
// cell per reported speedup, a base once per kernel with speedups, three
// per embedded row, none for Table 2, and no average rows.
func TestGridCellInsts(t *testing.T) {
	doc := &harness.BenchDocument{
		Table2:   []harness.Table2Row{{Name: "a"}, {Name: "average"}},
		Table3:   []harness.Table3Row{{Name: "a"}, {Name: "average"}},
		Table4:   []harness.Table4Row{{Table2Row: harness.Table2Row{Name: "m"}}},
		Figure5a: &harness.Figure{Series: []harness.FigureSeries{{Speedups: map[string]float64{"a": 1}}}},
		Figure5b: &harness.Figure{},
		Figure5c: &harness.Figure{Series: []harness.FigureSeries{
			{Speedups: map[string]float64{"a": 1}}, {Speedups: map[string]float64{"a": 1}}}},
		Embedded: []harness.EmbeddedRow{{Name: "m"}},
	}
	fig := &harness.Figure{Series: []harness.FigureSeries{{Speedups: map[string]float64{"a": 1, "m": 1}}}}
	// a: table3 + fig5a + 2×fig5c + figmech + base = 6 cells; m: table4 +
	// figmech + base + 3 embedded = 6 cells.
	got, err := gridCellInsts(doc, fig, map[string]int64{"a": 10, "m": 1000})
	if want := int64(6*10 + 6*1000); err != nil || got != want {
		t.Errorf("gridCellInsts = %d, %v; want %d", got, err, want)
	}
	if _, err := gridCellInsts(doc, fig, map[string]int64{"a": 10}); err == nil {
		t.Error("gridCellInsts accepted a kernel with no lab count")
	}
}

func TestSelfTime(t *testing.T) {
	// root [0,100] holds A [10,40], which holds B [20,30], and C [50,90].
	spans := []span{
		{ID: 0, Parent: -1, Op: 0, Name: "job", Start: 0, End: 100},
		{ID: 1, Parent: 0, Op: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 1, Op: 0, Name: "b", Start: 20, End: 30},
		{ID: 3, Parent: 0, Op: 0, Name: "c", Start: 50, End: 90},
	}
	bd, err := analyze(spans, []string{"job"})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{otherLayer: 30, "a": 20, "b": 10, "c": 40}
	if !reflect.DeepEqual(bd.Self, want) {
		t.Errorf("self = %v, want %v", bd.Self, want)
	}
	var total int64
	for _, v := range bd.Self {
		total += v
	}
	if total != bd.Wall["job"] || total != 100 {
		t.Errorf("layers plus other = %d, op wall = %d", total, bd.Wall["job"])
	}

	bad := map[string][]span{
		"overlapping siblings": {spans[0], spans[1], {ID: 2, Parent: 0, Op: 0, Name: "c", Start: 30, End: 60}},
		"child outside parent": {spans[0], {ID: 1, Parent: 0, Op: 0, Name: "a", Start: 90, End: 110}},
		"open span":            {spans[0], {ID: 1, Parent: 0, Op: 0, Name: "a", Start: 10, End: -1}},
	}
	for name, s := range bad {
		if _, err := analyze(s, []string{"job"}); err == nil {
			t.Errorf("%s: analyze accepted it", name)
		}
	}
}

// TestTracerSumsToWall nests real spans in several ops and checks the
// accounting rule on the clock's own readings.
func TestTracerSumsToWall(t *testing.T) {
	tr := newTracer()
	for i := 0; i < 3; i++ {
		op, root := tr.op("job")
		a := tr.begin(op, root, "a")
		b := tr.begin(op, a, "b")
		time.Sleep(time.Millisecond)
		tr.end(b)
		tr.end(a)
		c := tr.begin(op, root, "c")
		tr.end(c)
		tr.end(root)
	}
	spans, ops, _ := tr.snapshot()
	bd, err := analyze(spans, ops)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, v := range bd.Self {
		total += v
	}
	if total != bd.totalWall() || bd.Ops["job"] != 3 {
		t.Errorf("layers plus other = %d ns over %d ops, op wall = %d ns", total, bd.Ops["job"], bd.totalWall())
	}
	var nilTracer *tracer
	op, root := nilTracer.op("job")
	nilTracer.end(nilTracer.begin(op, root, "a"))
}

func TestJobStreamIsAFunctionOfTheSeed(t *testing.T) {
	a, b := jobStream(7, 400, 1000), jobStream(7, 400, 1000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different job streams")
	}
	sources := func(js []streamJob) map[string]bool {
		m := map[string]bool{}
		for _, j := range js {
			if j.Spec.Source != "" {
				m[j.Spec.Source] = true
			}
		}
		return m
	}
	sa, sc := sources(a), sources(jobStream(8, 400, 1000))
	for src := range sc {
		if sa[src] {
			t.Fatal("different seeds share a GenMC source")
		}
	}
	counts := map[string]int{}
	for i, j := range a {
		body, err := j.body()
		if err != nil {
			t.Fatal(err)
		}
		if j.Of != i {
			counts[classRepeat]++
			first, _ := a[j.Of].body()
			if j.Of > i || !bytes.Equal(body, first) {
				t.Fatalf("job %d claims to repeat job %d", i, j.Of)
			}
			continue
		}
		counts[j.Class]++
	}
	for _, m := range blockMix {
		if want := m.n * len(a) / 20; counts[m.class] != want {
			t.Errorf("%d %s jobs in %d, want %d", counts[m.class], m.class, len(a), want)
		}
	}
}

// TestDryRun runs every workload untraced and traced at tiny sizes. The
// figures mean nothing at these sizes; the checks and the accounting do.
func TestDryRun(t *testing.T) {
	root := t.TempDir()
	stress, err := os.ReadFile("../testdata/stress.mc")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(root, "testdata"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "testdata", "stress.mc"), stress, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := &options{Workload: w.name, Seed: 3, Window: 200 * time.Millisecond, Trace: trace,
				Root: root, Size: tinySizes()}
			var log bytes.Buffer
			res, err := runWorkload(context.Background(), o, &log)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w.name, trace, err, log.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s",
					w.name, trace, res.Correct, res.Failed, res.Attempted, log.String())
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v", w.name, trace, d.Name, m)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, m.Value)
				}
			}
			if trace && !strings.Contains(log.String(), "sums to op wall") {
				t.Errorf("%s: no self-time table printed", w.name)
			}
		}
	}
}
