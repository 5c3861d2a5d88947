package pipeline_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	elag "elag"
	"elag/internal/emu"
	"elag/internal/pipeline"
	"elag/internal/workload"
)

// TestBatchReplayStream: a streamed batched replay, whose emulation runs
// ahead of the replay on a goroutine of its own, reports the metrics of a
// replay of the materialized trace, and its onChunk hook sees every chunk
// in order on the calling goroutine. Cancelling from the hook stops the
// pass with the ctx error before another chunk is replayed.
func TestBatchReplayStream(t *testing.T) {
	const fuel, chunk = 100_000, 97
	specs := []pipeline.BatchSpec{
		{Config: pipeline.PaperBase()},
		{Config: pipeline.PaperCompilerDirected()},
	}
	kernels := workload.BySuite(workload.SPEC)[:4]
	for _, w := range kernels {
		p, err := elag.Build(w.Source, elag.BuildOptions{})
		if err != nil {
			t.Fatalf("%s: build: %v", w.Name, err)
		}
		res, trace, err := emu.RunTrace(p.Machine, fuel, true)
		if err != nil && !errors.Is(err, emu.ErrFuel) {
			t.Fatalf("%s: emulate: %v", w.Name, err)
		}
		want, err := pipeline.BatchReplayTrace(p.Machine, trace, chunk, specs)
		if err != nil {
			t.Fatalf("%s: materialized replay: %v", w.Name, err)
		}
		var hooked int64
		got, gotRes, err := pipeline.BatchReplayObservedContext(context.Background(), p.Machine,
			fuel, chunk, specs, func(done int64, n int) {
				if done != hooked+int64(n) || n < 1 || n > chunk {
					t.Errorf("%s: onChunk(%d, %d) after %d entries", w.Name, done, n, hooked)
				}
				hooked = done
			})
		if err != nil {
			t.Fatalf("%s: streamed replay: %v", w.Name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: streamed metrics differ from the materialized replay's", w.Name)
		}
		if hooked != int64(trace.Len()) || !reflect.DeepEqual(gotRes, res) {
			t.Errorf("%s: streamed %d entries with result %+v, want %d with %+v",
				w.Name, hooked, gotRes, trace.Len(), res)
		}

		ctx, cancel := context.WithCancel(context.Background())
		calls := 0
		_, _, err = pipeline.BatchReplayObservedContext(ctx, p.Machine, fuel, chunk, specs,
			func(int64, int) {
				if calls++; calls == 3 {
					cancel()
				}
			})
		cancel()
		if !errors.Is(err, context.Canceled) || calls != 3 {
			t.Errorf("%s: cancelled at chunk 3: err %v after %d chunks", w.Name, err, calls)
		}
	}
}
