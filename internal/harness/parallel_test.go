package harness_test

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"elag/internal/harness"
	"elag/internal/workload"
)

// encode renders doc the way elag-bench -json does.
func encode(t *testing.T, doc *harness.BenchDocument) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := harness.WriteBenchJSON(&buf, doc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// oneAtATime runs every experiment by its own method, in turn, on one
// serial runner — each call its own plan — and assembles the document.
func oneAtATime(t *testing.T, fuel int64) []byte {
	t.Helper()
	r := &harness.Runner{Fuel: fuel}
	doc := &harness.BenchDocument{Schema: harness.BenchSchema, Fuel: fuel}
	for _, step := range []func() error{
		func() (err error) { doc.Table2, err = r.Table2(ctx); return },
		func() (err error) { doc.Table3, err = r.Table3(ctx); return },
		func() (err error) { doc.Table4, err = r.Table4(ctx); return },
		func() (err error) { doc.Figure5a, err = r.Figure5a(ctx); return },
		func() (err error) { doc.Figure5b, err = r.Figure5b(ctx); return },
		func() (err error) { doc.Figure5c, err = r.Figure5c(ctx); return },
		func() (err error) { doc.Embedded, err = r.Embedded(ctx); return },
		func() (err error) { doc.FigureMech, err = r.FigureMech(ctx); return },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	return encode(t, doc)
}

// TestParallelDeterminism is the engine's headline guarantee: the grid
// experiments produce byte-identical artifacts — cycle counts, speedups,
// float averages and all — at every parallelism level and chunk size, and
// whether the planner runs them as one Document or one experiment at a
// time. Run under -race this also proves the fan-out is data-race-free.
func TestParallelDeterminism(t *testing.T) {
	fuel := int64(30_000)
	if testing.Short() {
		fuel = 15_000
	}
	want := oneAtATime(t, fuel)
	for _, parallel := range []int{1, 4, 8} {
		for _, chunk := range []int{257, 0} {
			r := &harness.Runner{Fuel: fuel, Parallel: parallel, ChunkSize: chunk}
			doc, err := r.Document(ctx)
			if err != nil {
				t.Fatal(err)
			}
			// FigureMech after Document reuses the labs and memoized cells.
			if doc.FigureMech, err = r.FigureMech(ctx); err != nil {
				t.Fatal(err)
			}
			if got := encode(t, doc); !bytes.Equal(got, want) {
				t.Errorf("parallel=%d chunk=%d: Document differs from the experiments run one at a time\none at a time: %.300s\nDocument:      %.300s",
					parallel, chunk, want, got)
			}
		}
	}
}

// TestLabSingleFlight: concurrent requests for one benchmark must share a
// single build and return the same lab.
func TestLabSingleFlight(t *testing.T) {
	r := &harness.Runner{Fuel: 50_000, Parallel: 8}
	w := workload.Get("023.eqntott")
	const n = 8
	labs := make([]*harness.Lab, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l, err := r.Lab(ctx, w)
			if err != nil {
				t.Error(err)
				return
			}
			labs[i] = l
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if labs[i] != labs[0] {
			t.Fatalf("lab %d is a different instance", i)
		}
	}
}

// TestLabFailedBuildNotCached: a build that fails — a compile error, or a
// ctx cancelled before the profile run finishes — is never cached, so the
// next request builds afresh; a successful build is cached from then on.
func TestLabFailedBuildNotCached(t *testing.T) {
	c := &harness.Counters{}
	r := &harness.Runner{Fuel: 50_000, Counters: c}
	broken := &workload.Workload{Name: "broken", Source: "int main() { return }"}
	for i := 0; i < 2; i++ {
		if _, err := r.Lab(ctx, broken); err == nil {
			t.Fatal("broken workload built a lab")
		}
	}
	if got := c.LabMisses.Load(); got != 2 {
		t.Errorf("failed build was cached: %d builds for 2 requests, want 2", got)
	}

	w := workload.Get("023.eqntott")
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := r.Lab(cancelled, w); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build: err = %v, want Canceled", err)
	}
	l, err := r.Lab(ctx, w)
	if err != nil {
		t.Fatalf("build after a cancelled one: %v", err)
	}
	if got := c.LabMisses.Load(); got != 4 {
		t.Errorf("cancelled build was cached: %d builds, want 4", got)
	}
	if again, err := r.Lab(ctx, w); err != nil || again != l {
		t.Errorf("successful build not cached: %p, %v", again, err)
	}
	if got := c.LabMisses.Load(); got != 4 {
		t.Errorf("cached lab rebuilt: %d builds, want 4", got)
	}
}

// TestDocumentStreamsEachKernelOnce: a cold Document builds each of the 25
// labs once and streams each kernel once for all of its cells; a
// following FigureMech builds nothing and re-streams only the 12 SPEC
// kernels, for the two cells (stride, pcax) no Document experiment has.
func TestDocumentStreamsEachKernelOnce(t *testing.T) {
	c := &harness.Counters{}
	r := &harness.Runner{Fuel: 30_000, Parallel: 2, Counters: c}
	if _, err := r.Document(ctx); err != nil {
		t.Fatal(err)
	}
	misses, insts := c.LabMisses.Load(), c.Insts.Load()
	var all, spec int64
	for _, w := range workload.All() {
		l, err := r.Lab(ctx, w)
		if err != nil {
			t.Fatal(err)
		}
		all += l.EmuRes.DynamicInsts
		if w.Suite == workload.SPEC {
			spec += l.EmuRes.DynamicInsts
		}
	}
	if n := int64(len(workload.All())); misses != n {
		t.Errorf("Document built %d labs, want %d", misses, n)
	}
	if insts != all {
		t.Errorf("Document streamed %d entries, want %d (each kernel once)", insts, all)
	}

	if _, err := r.FigureMech(ctx); err != nil {
		t.Fatal(err)
	}
	if got := c.LabMisses.Load(); got != misses {
		t.Errorf("FigureMech built %d labs after Document, want 0", got-misses)
	}
	if got := c.Insts.Load() - insts; got != spec {
		t.Errorf("FigureMech streamed %d entries, want %d (each SPEC kernel once)", got, spec)
	}
}
