package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"elag"
	"elag/internal/emu"
	"elag/internal/pipeline"
	"elag/internal/workload"
)

// sim-stream: the elag-sim single-program path. Each op builds every
// program with elag.Build and replays it with SimulateStreamContext, one
// configuration per pass (base, then compiler), on testdata/stress.mc and
// a seeded sample of suite workloads.

type simProgram struct {
	name string
	src  string
	fuel int64
	ref  emu.Result // Program.Run's result: the check for every pass
}

type simBench struct {
	progs []simProgram
	// batchProg is the program whose two-configuration SimulateBatch is
	// checked against its two single-configuration passes.
	batchProg int
}

// simConfigs are the passes of one sim-stream program, in order.
var simConfigs = []cell{
	{"base", pipeline.BatchSpec{Config: elag.BaseConfig()}},
	{"compiler", pipeline.BatchSpec{Config: elag.CompilerDirectedConfig()}},
}

// setupSim reads the inputs, runs every program architecturally once for
// the reference results, and draws the seeded sample. The sample takes one
// workload from each of SimSample strata of the corpus sorted by retired
// instructions, so every seed replays nearly the same number of them.
func setupSim(ctx context.Context, o *options) (bench, error) {
	stress, err := os.ReadFile(filepath.Join(o.Root, "testdata", "stress.mc"))
	if err != nil {
		return nil, err
	}
	progs := []simProgram{{name: "stress.mc", src: string(stress), fuel: o.Size.StressFuel}}
	corpus := []simProgram{}
	for _, w := range workload.All() {
		corpus = append(corpus, simProgram{name: w.Name, src: w.Source, fuel: o.Size.SimFuel})
	}
	for _, list := range [][]simProgram{progs, corpus} {
		for i := range list {
			p, err := elag.Build(list[i].src, elag.BuildOptions{})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", list[i].name, err)
			}
			list[i].ref, err = p.Run(list[i].fuel)
			if err != nil && !errors.Is(err, elag.ErrFuel) {
				return nil, fmt.Errorf("%s: %w", list[i].name, err)
			}
		}
	}
	sort.SliceStable(corpus, func(i, j int) bool { return corpus[i].ref.DynamicInsts < corpus[j].ref.DynamicInsts })
	rng := rand.New(rand.NewSource(o.Seed))
	k := o.Size.SimSample
	for i := 0; i < k; i++ {
		stratum := corpus[i*len(corpus)/k : (i+1)*len(corpus)/k]
		progs = append(progs, stratum[rng.Intn(len(stratum))])
	}
	return &simBench{progs: progs, batchProg: 1 + rng.Intn(len(progs)-1)}, nil
}

func (s *simBench) close() error { return nil }

// checkPass compares one pass with the program's reference run.
func checkPass(prog *simProgram, cfg string, m *elag.Metrics, res elag.RunResult) error {
	if m.Insts != prog.ref.DynamicInsts || res.DynamicInsts != prog.ref.DynamicInsts || res.Output() != prog.ref.Output() {
		return fmt.Errorf("sim-stream %s/%s: retired %d insts, output %q; Program.Run retired %d, output %q",
			prog.name, cfg, m.Insts, res.Output(), prog.ref.DynamicInsts, prog.ref.Output())
	}
	return nil
}

// runProgram builds prog and runs its passes, untraced through the
// elag-sim entry point or traced through streamPass. It returns the
// passes' metrics; an error is the op's first failure.
func runProgram(ctx context.Context, tr *tracer, op, root int, prog *simProgram) ([]*elag.Metrics, error) {
	id := tr.begin(op, root, "passman.build")
	p, err := elag.Build(prog.src, elag.BuildOptions{})
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("sim-stream %s: %w", prog.name, err)
	}
	tr.count("passman.insts", int64(len(p.Machine.Insts)))
	var passes []*elag.Metrics
	for _, c := range simConfigs {
		var m *elag.Metrics
		var res elag.RunResult
		if tr == nil {
			m, res, err = p.SimulateStreamContext(ctx, c.spec.Config, prog.fuel, 0)
		} else {
			var ms []*elag.Metrics
			ms, res, err = streamPass(ctx, tr, op, root, p.Machine, prog.fuel, []cell{c})
			if err == nil {
				m = ms[0]
			}
		}
		if err != nil {
			return nil, fmt.Errorf("sim-stream %s/%s: %w", prog.name, c.layer, err)
		}
		if err := checkPass(prog, c.layer, m, res); err != nil {
			return nil, err
		}
		passes = append(passes, m)
	}
	return passes, nil
}

func (s *simBench) measure(ctx context.Context, d time.Duration, tr *tracer, hs *heapSampler) (*window, error) {
	if tr != nil {
		return s.traced(ctx, tr)
	}
	w := &window{}
	var rates []float64
	var last []*elag.Metrics // the batch program's passes, from the last op
	start := time.Now()
	for another(start, d, w.attempted, w.opMS) {
		runtime.GC()
		w.attempted++
		var insts int64
		var err error
		t := time.Now()
		for i := range s.progs {
			var passes []*elag.Metrics
			if passes, err = runProgram(ctx, nil, -1, -1, &s.progs[i]); err != nil {
				break
			}
			for _, m := range passes {
				insts += m.Insts
			}
			if i == s.batchProg {
				last = passes
			}
		}
		sec := time.Since(t).Seconds()
		hs.cut()
		if err != nil {
			w.fail("%v", err)
			continue
		}
		w.opMS = append(w.opMS, sec*1e3)
		rates = append(rates, float64(insts)/sec/1e6)
	}
	w.opsPerSec = ratio(float64(len(w.opMS)), sum(w.opMS)/1e3)
	w.minstPerSec = median(rates)
	s.checkBatch(w, last)
	return w, nil
}

// checkBatch replays the batch program under both configurations in one
// SimulateBatch pass and compares the metrics with its single passes.
func (s *simBench) checkBatch(w *window, single []*elag.Metrics) {
	w.attempted++
	prog := &s.progs[s.batchProg]
	if len(single) != len(simConfigs) {
		w.fail("sim-stream batch check on %s: no single-configuration passes to compare", prog.name)
		return
	}
	p, err := elag.Build(prog.src, elag.BuildOptions{})
	if err != nil {
		w.fail("sim-stream batch check on %s: %v", prog.name, err)
		return
	}
	specs := make([]elag.BatchSpec, len(simConfigs))
	for i, c := range simConfigs {
		specs[i] = c.spec
	}
	batch, _, err := p.SimulateBatch(specs, prog.fuel, 0)
	if err != nil {
		w.fail("sim-stream batch check on %s: %v", prog.name, err)
		return
	}
	for i := range batch {
		a, errA := json.Marshal(batch[i])
		b, errB := json.Marshal(single[i])
		if errA != nil || errB != nil || string(a) != string(b) {
			w.fail("sim-stream batch check on %s: %s metrics differ between SimulateBatch and its single pass",
				prog.name, simConfigs[i].layer)
			return
		}
	}
}

// traced runs one op with the compile in a passman.build span and each
// pass driven through streamPass, so emulation and replay are split. The
// model.* figures come from stress.mc, the one input no seed changes.
func (s *simBench) traced(ctx context.Context, tr *tracer) (*window, error) {
	w := &window{layers: map[string]float64{}}
	var model modelStats
	w.attempted++
	op, root := tr.op("sim")
	t := time.Now()
	var err error
	for i := range s.progs {
		var passes []*elag.Metrics
		if passes, err = runProgram(ctx, tr, op, root, &s.progs[i]); err != nil {
			break
		}
		if i == 0 {
			// stress.mc alone: the sample depends on the seed, and the
			// model.* figures must not.
			model.add(passes[0], passes[1])
		}
	}
	w.tracedMS = time.Since(t).Seconds() * 1e3
	tr.end(root)
	if err != nil {
		w.fail("%v", err)
	}
	model.put(w.layers)
	return w, nil
}
