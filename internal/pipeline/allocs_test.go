package pipeline_test

import (
	"errors"
	"testing"

	elag "elag"
	"elag/internal/emu"
	"elag/internal/pipeline"
	"elag/internal/workload"
)

// TestRunChunkAllocsNothing: once a Sim has replayed its first chunk,
// replaying a 4096-entry chunk with no observer attached allocates nothing,
// under both the base and the compiler-directed configuration. Every chunk
// past the first is measured on its own: AllocsPerRun truncates an
// average, so one run per measurement keeps a single stray allocation
// visible, and since each call also replays an unmeasured warm-up chunk,
// two Sims per configuration measure the odd and the even chunks.
func TestRunChunkAllocsNothing(t *testing.T) {
	const (
		chunk  = 4096
		chunks = 16
	)
	kernels := workload.BySuite(workload.SPEC)
	if testing.Short() {
		kernels = kernels[:4]
	}
	for _, w := range kernels {
		p, err := elag.Build(w.Source, elag.BuildOptions{})
		if err != nil {
			t.Fatalf("%s: build: %v", w.Name, err)
		}
		_, trace, err := emu.RunTrace(p.Machine, chunks*chunk, true)
		if err != nil && !errors.Is(err, emu.ErrFuel) {
			t.Fatalf("%s: emulate: %v", w.Name, err)
		}
		var views []*emu.Trace
		for lo := 0; lo < trace.Len(); lo += chunk {
			views = append(views, trace.Slice(lo, min(lo+chunk, trace.Len())))
		}
		if len(views) < 4 {
			t.Fatalf("%s: only %d chunks", w.Name, len(views))
		}
		for _, cfg := range []struct {
			name string
			cfg  pipeline.Config
		}{
			{"base", pipeline.PaperBase()},
			{"compiler", pipeline.PaperCompilerDirected()},
		} {
			for warm := 1; warm <= 2; warm++ {
				sim, err := pipeline.New(cfg.cfg, p.Machine, nil)
				if err != nil {
					t.Fatal(err)
				}
				next := 0
				step := func() {
					if err := sim.RunChunk(views[next]); err != nil {
						t.Fatalf("%s/%s: chunk %d: %v", w.Name, cfg.name, next, err)
					}
					next++
				}
				for next < warm {
					step()
				}
				for next+2 <= len(views) {
					at := next + 1
					if n := testing.AllocsPerRun(1, step); n != 0 {
						t.Errorf("%s/%s: chunk %d allocated %v times", w.Name, cfg.name, at, n)
					}
				}
			}
		}
	}
}
