package pipeline

// Batched multi-configuration replay: the evaluation replays one
// architectural trace under many hardware configurations (every table and
// figure of the paper is such a grid), and the per-configuration sequential
// shape pays for the trace twice per cell — once to produce it, once to
// stream its megabytes past the sim. BatchReplay instead advances N
// independent pipeline states through each trace chunk in one pass: the
// program is emulated exactly once (streamed, O(chunkSize) memory, no dry
// counting pass), and each chunk is still hot in L1/L2 when the next
// configuration replays it. Each Sim is fully independent state, so the
// batched metrics are bit-identical to N sequential replays.

import (
	"context"
	"errors"

	"elag/internal/emu"
	"elag/internal/isa"
)

// BatchSpec is one configuration cell of a batched replay: a hardware
// configuration plus the load-flavour overlay to resolve into its decode
// cache (nil uses the program's baked-in flavours). NoSpecialize disables
// the specialized replay kernels for this cell (results are byte-identical
// either way — see SetNoSpecialize).
type BatchSpec struct {
	Config       Config
	Flavors      isa.FlavorOverlay
	NoSpecialize bool
}

// NewBatch constructs one independent Sim per spec over prog. Any
// construction error aborts the whole batch.
func NewBatch(prog *isa.Program, specs []BatchSpec) ([]*Sim, error) {
	sims := make([]*Sim, len(specs))
	for i, sp := range specs {
		sim, err := New(sp.Config, prog, sp.Flavors)
		if err != nil {
			return nil, err
		}
		sim.SetNoSpecialize(sp.NoSpecialize)
		sims[i] = sim
	}
	return sims, nil
}

// RunChunkBatch advances every sim through chunk, one sim at a time: each
// sim walks the whole chunk before the next starts, so a sim's own state
// (scoreboard, caches, predictor) stays hot in L1 across consecutive
// entries while the chunk itself — small enough to sit in L2 — is reread
// by each configuration. StepInst treats the shared entries as read-only,
// so the batched metrics are bit-identical to N sequential replays.
func RunChunkBatch(sims []*Sim, chunk *emu.Trace) error {
	// Hoist the columns into locals: unlike Fill's receiver loads, locals
	// provably don't alias the sim, so the slice headers survive the
	// StepInst call in registers.
	n := chunk.Len()
	pcs, nextPCs := chunk.PC[:n], chunk.NextPC[:n]
	eas, baseVals := chunk.EA[:n], chunk.BaseVal[:n]
	takens := chunk.Taken[:n]
	seq0 := chunk.Seq0
	for _, s := range sims {
		if err := s.runChunkCols(pcs, nextPCs, eas, baseVals, takens, seq0); err != nil {
			return err
		}
	}
	return nil
}

// batchMetrics finalizes a batch of sims.
func batchMetrics(sims []*Sim) []*Metrics {
	ms := make([]*Metrics, len(sims))
	for i, sim := range sims {
		ms[i] = sim.Metrics()
	}
	return ms
}

// BatchReplay emulates prog once (streamed in chunkSize-entry chunks;
// <= 0 for emu.DefaultChunkSize) and replays every chunk through one Sim
// per spec, returning the per-spec metrics in spec order plus the
// architectural result. Peak trace memory is O(chunkSize) regardless of
// fuel. A fuel-truncated run is still replayed — prefix timing is valid
// timing — so fuel exhaustion is not an error here.
func BatchReplay(prog *isa.Program, fuel int64, chunkSize int, specs []BatchSpec) ([]*Metrics, emu.Result, error) {
	return BatchReplayContext(context.Background(), prog, fuel, chunkSize, specs)
}

// BatchReplayContext is BatchReplay with cooperative cancellation: ctx is
// checked between chunks of the streamed architectural execution, so a
// replay over a pathological fuel budget aborts within one chunk of
// cancellation with the ctx error. Uncancelled results are byte-identical
// to BatchReplay.
func BatchReplayContext(ctx context.Context, prog *isa.Program, fuel int64, chunkSize int, specs []BatchSpec) ([]*Metrics, emu.Result, error) {
	return BatchReplayObservedContext(ctx, prog, fuel, chunkSize, specs, nil)
}

// BatchReplayObservedContext is BatchReplayContext with a chunk-boundary
// progress hook: after every chunk has been replayed through all sims,
// onChunk (may be nil) receives the cumulative replayed-entry count and
// the size of the chunk just finished. The hook observes — it gets no
// access to the sims and runs strictly between chunks — so results are
// byte-identical with or without it, and a nil hook costs one comparison
// per chunk.
func BatchReplayObservedContext(ctx context.Context, prog *isa.Program, fuel int64, chunkSize int, specs []BatchSpec, onChunk func(done int64, n int)) ([]*Metrics, emu.Result, error) {
	sims, err := NewBatch(prog, specs)
	if err != nil {
		return nil, emu.Result{}, err
	}
	var done int64
	res, err := emu.StreamTraceContext(ctx, prog, fuel, chunkSize, func(chunk *emu.Trace) error {
		if err := RunChunkBatch(sims, chunk); err != nil {
			return err
		}
		if onChunk != nil {
			done += int64(chunk.Len())
			onChunk(done, chunk.Len())
		}
		return nil
	})
	if err != nil && !errors.Is(err, emu.ErrFuel) {
		return nil, res, err
	}
	return batchMetrics(sims), res, nil
}

// BatchReplayTrace is BatchReplay over an already-materialized trace: the
// trace is walked once in chunkSize-entry windows (<= 0 for
// emu.DefaultChunkSize) with every Sim advanced per window, so the window
// stays cache-hot across all configurations instead of each configuration
// streaming the whole trace from memory.
func BatchReplayTrace(prog *isa.Program, trace *emu.Trace, chunkSize int, specs []BatchSpec) ([]*Metrics, error) {
	return BatchReplayTraceContext(context.Background(), prog, trace, chunkSize, specs)
}

// BatchReplayTraceContext is BatchReplayTrace with cooperative
// cancellation, checked between chunk windows of the materialized trace.
// Uncancelled results are byte-identical to BatchReplayTrace.
func BatchReplayTraceContext(ctx context.Context, prog *isa.Program, trace *emu.Trace, chunkSize int, specs []BatchSpec) ([]*Metrics, error) {
	sims, err := NewBatch(prog, specs)
	if err != nil {
		return nil, err
	}
	if chunkSize <= 0 {
		chunkSize = emu.DefaultChunkSize
	}
	err = trace.Chunks(chunkSize, func(chunk *emu.Trace) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return RunChunkBatch(sims, chunk)
	})
	if err != nil {
		return nil, err
	}
	return batchMetrics(sims), nil
}

// SimulateStream is Simulate with bounded memory: the trace is streamed
// through the Sim in chunkSize-entry chunks instead of materialized. The
// metrics are bit-identical to Simulate's; peak trace memory is
// O(chunkSize) regardless of fuel.
func SimulateStream(cfg Config, prog *isa.Program, fuel int64, chunkSize int) (*Metrics, emu.Result, error) {
	return SimulateStreamContext(context.Background(), cfg, prog, fuel, chunkSize)
}

// SimulateStreamContext is SimulateStream with cooperative cancellation
// (see BatchReplayContext).
func SimulateStreamContext(ctx context.Context, cfg Config, prog *isa.Program, fuel int64, chunkSize int) (*Metrics, emu.Result, error) {
	ms, res, err := BatchReplayContext(ctx, prog, fuel, chunkSize, []BatchSpec{{Config: cfg}})
	if err != nil {
		return nil, res, err
	}
	return ms[0], res, nil
}
