package main

import (
	"context"
	"errors"

	"elag/internal/emu"
	"elag/internal/harness"
	"elag/internal/isa"
	"elag/internal/mech"
	"elag/internal/pipeline"
)

// cell is one configuration of a benchmark-driven streamed pass, with the
// pipeline layer its replay time is charged to.
type cell struct {
	layer string
	spec  pipeline.BatchSpec
}

// paperCells are the six configurations whose replay cost the traced
// paper-grid run reports: the paper's base and compiler-directed designs,
// the three hardware-only schemes of Figure 5c and one assist mechanism.
// The compiler cell uses the program's own flavours, which are the
// heuristic classification Build applied.
func paperCells() []cell {
	return []cell{
		{"base", pipeline.BatchSpec{Config: pipeline.PaperBase()}},
		{"compiler", pipeline.BatchSpec{Config: harness.CompilerDual()}},
		{"hw_pred", pipeline.BatchSpec{Config: harness.HWPredict(256)}},
		{"hw_early", pipeline.BatchSpec{Config: harness.HWEarly(16)}},
		{"hw_dual", pipeline.BatchSpec{Config: harness.HWDual(256, 16)}},
		{"assist", pipeline.BatchSpec{Config: harness.Assist(mech.Spec{Kind: "stride", Entries: 256})}},
	}
}

// streamPass runs one architectural execution of prog and replays every
// chunk through one Sim per cell, as pipeline.BatchReplayContext does, but
// with each Sim's RunChunkBatch call timed as its own span under the
// emu.stream span. emu.stream's self time is therefore emulation alone.
// With a nil tracer it is the plain batched replay.
func streamPass(ctx context.Context, tr *tracer, op, parent int, prog *isa.Program, fuel int64, cells []cell) ([]*pipeline.Metrics, emu.Result, error) {
	specs := make([]pipeline.BatchSpec, len(cells))
	for i, c := range cells {
		specs[i] = c.spec
	}
	id := tr.begin(op, parent, "pipeline.new_batch")
	sims, err := pipeline.NewBatch(prog, specs)
	tr.end(id)
	if err != nil {
		return nil, emu.Result{}, err
	}
	emuID := tr.begin(op, parent, "emu.stream")
	res, err := emu.StreamTraceContext(ctx, prog, fuel, 0, func(chunk *emu.Trace) error {
		n := int64(chunk.Len())
		for i := range sims {
			id := tr.begin(op, emuID, "pipeline."+cells[i].layer)
			err := pipeline.RunChunkBatch(sims[i:i+1], chunk)
			tr.end(id)
			if err != nil {
				return err
			}
			tr.count("pipeline."+cells[i].layer+".insts", n)
		}
		tr.count("emu.insts", n)
		return nil
	})
	tr.end(emuID)
	if err != nil && !errors.Is(err, emu.ErrFuel) {
		return nil, res, err
	}
	ms := make([]*pipeline.Metrics, len(sims))
	for i, sim := range sims {
		ms[i] = sim.Metrics()
	}
	return ms, res, nil
}

// modelStats accumulates the simulated-time statistics of base and
// compiler-directed passes into the model.* metrics.
type modelStats struct {
	baseCycles, compilerCycles   int64
	predFwd, predElig            int64
	earlyFwd, earlyElig          int64
	dcacheMisses, dcacheAccesses int64
}

func (s *modelStats) add(base, compiler *pipeline.Metrics) {
	s.baseCycles += base.Cycles
	s.compilerCycles += compiler.Cycles
	s.predFwd += compiler.Predict.Forwarded
	s.predElig += compiler.Predict.Eligible
	s.earlyFwd += compiler.Early.Forwarded
	s.earlyElig += compiler.Early.Eligible
	s.dcacheMisses += compiler.DCacheStats.Misses
	s.dcacheAccesses += compiler.DCacheStats.Accesses
}

func (s *modelStats) put(layers map[string]float64) {
	layers["model.base_cycles"] = float64(s.baseCycles)
	layers["model.compiler_cycles"] = float64(s.compilerCycles)
	layers["model.predict_forward_rate"] = ratio(float64(s.predFwd), float64(s.predElig))
	layers["model.early_forward_rate"] = ratio(float64(s.earlyFwd), float64(s.earlyElig))
	layers["model.dcache_miss_rate"] = ratio(float64(s.dcacheMisses), float64(s.dcacheAccesses))
}
