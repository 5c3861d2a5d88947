// White-box tests for grid cancellation: worker-pool shutdown must be
// leak-free no matter where cancellation lands, and a cancelled grid
// re-run to completion must be byte-identical to one that was never
// cancelled — cancellation may cost wall time, never determinism.
package harness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"elag/internal/workload"
)

const cancelFuel = 100_000

// settleGoroutines waits for the goroutine count to return to the
// baseline, failing the test with a full stack dump if it does not.
func settleGoroutines(t *testing.T, before int, stage string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var n int
	for time.Now().Before(deadline) {
		runtime.GC()
		if n = runtime.NumGoroutine(); n <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Fatalf("%s: goroutine leak: %d before, %d after settle\n%s",
		stage, before, n, buf[:runtime.Stack(buf, true)])
}

// TestForEachLabCancelEveryStage cancels the grid context at every stage a
// cancellation can land — before the grid starts, during the k-th
// benchmark's work for every k, and after the last one — and asserts the
// pool reports the cancellation and leaks nothing.
func TestForEachLabCancelEveryStage(t *testing.T) {
	benches := workload.All()
	if len(benches) > 4 {
		benches = benches[:4]
	}
	for _, parallel := range []int{2, 4, 8} {
		// Pre-cancelled: no worker may start.
		func() {
			before := runtime.NumGoroutine()
			r := &Runner{Fuel: cancelFuel, Parallel: parallel}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			err := r.forEachLab(ctx, benches, func(ctx context.Context, i int, l *Lab) error {
				t.Errorf("parallel=%d: fn ran under a pre-cancelled ctx", parallel)
				return nil
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("parallel=%d pre-cancel: err = %v, want Canceled", parallel, err)
			}
			settleGoroutines(t, before, fmt.Sprintf("parallel=%d pre-cancel", parallel))
		}()

		// Cancel while the k-th callback is in flight, for every k. The
		// runner is shared so labs come from cache after the first pass —
		// the point is pool shutdown, not build cost.
		r := &Runner{Fuel: cancelFuel, Parallel: parallel}
		for k := 0; k < len(benches); k++ {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			var calls atomic.Int64
			err := r.forEachLab(ctx, benches, func(ctx context.Context, i int, l *Lab) error {
				if calls.Add(1) == int64(k+1) {
					cancel()
					// The grid must observe the cancellation even though
					// this callback returns nil.
				}
				return nil
			})
			cancel()
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("parallel=%d cancel-at-%d: err = %v", parallel, k, err)
			}
			if err == nil && k < len(benches)-1 {
				t.Fatalf("parallel=%d cancel-at-%d: grid ignored cancellation", parallel, k)
			}
			settleGoroutines(t, before, fmt.Sprintf("parallel=%d cancel-at-%d", parallel, k))
		}

		// Deadline expiring mid-build: cancellation lands inside Lab
		// construction (profile/trace), not between callbacks.
		func() {
			before := runtime.NumGoroutine()
			fresh := &Runner{Fuel: 10_000_000, Parallel: parallel}
			ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
			defer cancel()
			err := fresh.forEachLab(ctx, benches, func(ctx context.Context, i int, l *Lab) error {
				return nil
			})
			if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
				t.Fatalf("parallel=%d mid-build deadline: err = %v", parallel, err)
			}
			settleGoroutines(t, before, fmt.Sprintf("parallel=%d mid-build", parallel))
		}()
	}
}

// TestForEachLabFirstErrorNoLeak injects a first error from the k-th
// callback for every k: the grid must return exactly that error and shut
// the pool down without leaking.
func TestForEachLabFirstErrorNoLeak(t *testing.T) {
	benches := workload.All()
	if len(benches) > 4 {
		benches = benches[:4]
	}
	for _, parallel := range []int{2, 8} {
		r := &Runner{Fuel: cancelFuel, Parallel: parallel}
		for k := 0; k < len(benches); k++ {
			before := runtime.NumGoroutine()
			boom := fmt.Errorf("injected failure at call %d", k)
			var calls atomic.Int64
			err := r.forEachLab(context.Background(), benches, func(ctx context.Context, i int, l *Lab) error {
				if calls.Add(1) == int64(k+1) {
					return boom
				}
				return nil
			})
			if !errors.Is(err, boom) {
				t.Fatalf("parallel=%d fail-at-%d: err = %v, want injected error", parallel, k, err)
			}
			settleGoroutines(t, before, fmt.Sprintf("parallel=%d fail-at-%d", parallel, k))
		}
	}
}

// TestGridCancelRerunDeterminism is the cancellation-determinism contract:
// cancel a grid mid-run, then re-run it to completion on the same Runner
// (same lab cache, same memoized cells) — the output must be
// byte-identical to a run that never saw a cancellation, at every
// parallelism level. Cancelling a Document mid-plan must leave no partial
// cell memoized: a lab's cells all ride one pass, so each lab's memo is
// either empty or exactly the uncancelled run's.
func TestGridCancelRerunDeterminism(t *testing.T) {
	ref := &Runner{Fuel: cancelFuel}
	refRows, err := ref.Table2(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := FormatTable2(refRows)
	const docFuel = 15_000
	refDocRunner := &Runner{Fuel: docFuel}
	refDoc, err := refDocRunner.Document(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantDoc := docJSON(t, refDoc)

	for _, parallel := range []int{1, 4, 8} {
		r := &Runner{Fuel: cancelFuel, Parallel: parallel}

		// First attempt: cancelled from a concurrent timer, landing at an
		// arbitrary point in lab builds or replays.
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(5 * time.Millisecond)
			cancel()
		}()
		rows, err := r.Table2(ctx)
		cancel()
		if err == nil {
			// The cancel lost the race and the run finished; it must
			// already match.
			if got := FormatTable2(rows); got != want {
				t.Fatalf("parallel=%d: uncancelled-by-race output diverges", parallel)
			}
		} else if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallel=%d cancelled run: err = %v", parallel, err)
		}

		// Re-run on the same Runner: whatever half-built state the cancel
		// left behind must not change a single byte.
		rows, err = r.Table2(context.Background())
		if err != nil {
			t.Fatalf("parallel=%d re-run: %v", parallel, err)
		}
		if got := FormatTable2(rows); got != want {
			t.Errorf("parallel=%d: re-run after cancel diverges from uncancelled run:\ngot:\n%s\nwant:\n%s",
				parallel, got, want)
		}

		// Mid-plan: cancel a cold Document once its third kernel
		// completes, while other workers are inside their kernels' lab
		// builds or passes.
		r = &Runner{Fuel: docFuel, Parallel: parallel}
		ctx, cancel = context.WithCancel(context.Background())
		r.Progress = func(_ string, done, _ int) {
			if done == 3 {
				cancel()
			}
		}
		if _, err := r.Document(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("parallel=%d mid-plan cancel: err = %v, want Canceled", parallel, err)
		}
		cancel()
		r.Progress = nil
		for name, e := range r.labs {
			memo, want := e.l.memo, refDocRunner.labs[name].l.memo
			if len(memo) != 0 && !reflect.DeepEqual(memo, want) {
				t.Errorf("parallel=%d: %s memoized a partial or wrong cell set after cancel:\ngot  %v\nwant %v",
					parallel, name, memo, want)
			}
		}
		doc, err := r.Document(context.Background())
		if err != nil {
			t.Fatalf("parallel=%d Document re-run: %v", parallel, err)
		}
		if got := docJSON(t, doc); !bytes.Equal(got, wantDoc) {
			t.Errorf("parallel=%d: Document re-run after mid-plan cancel diverges", parallel)
		}
	}
}

func docJSON(t *testing.T, doc *BenchDocument) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBenchJSON(&buf, doc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
