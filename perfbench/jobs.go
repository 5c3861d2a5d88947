package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"elag/internal/diffcheck"
	"elag/internal/serve"
	"elag/internal/workload"
)

// The serve-mix job stream. It is a pure function of the seed. Every block
// of blockLen jobs holds the same mix, in a seeded order: compile jobs of
// diffcheck.GenMC programs at O0/O1/O2, simulate jobs on GenMC sources at
// small fuel, simulate jobs on named workloads with two configurations,
// and exact repeats of earlier jobs. The seed picks the programs, the
// workloads and what is repeated; the fixed mix keeps the work per block
// nearly the same for every seed, so a seed changes the inputs without
// changing the figures.

// Job classes of the stream.
const (
	classCompile     = "compile"
	classSimulateSrc = "simulate-src"
	classSimulateWL  = "simulate-wl"
	classRepeat      = "repeat"
)

// blockMix is the class composition of every block of the stream: a
// quarter of the jobs repeat an earlier one.
var blockMix = []struct {
	class string
	n     int
}{{classCompile, 6}, {classSimulateSrc, 4}, {classSimulateWL, 5}, {classRepeat, 5}}

type streamJob struct {
	Spec  serve.JobSpec
	Class string // the class of the job's spec; a repeat keeps its original's
	// Of is the index of the first job with this spec; equal to the job's
	// own index for a fresh job.
	Of int
}

// configPairs are the configuration pairs of named-workload simulate jobs.
var configPairs = [][]serve.ConfigSpec{
	{{Name: "base"}, {Name: "compiler"}},
	{{Name: "hw-pred"}, {Name: "hw-early"}},
	{{Name: "hw-dual"}, {Name: "base", Mech: "stride:256"}},
	{{Name: "compiler"}, {Name: "base", Mech: "pcax"}},
}

var optLevels = []string{"O0", "O1", "O2"}

// jobStream returns the first n jobs of the stream for seed. Named-workload
// simulate jobs get wlFuel plus a seeded offset below 1%, which keeps their
// specs distinct; GenMC simulate jobs get a twentieth of wlFuel.
func jobStream(seed int64, n int, wlFuel int64) []streamJob {
	rng := rand.New(rand.NewSource(seed))
	corpus := workload.All()
	var block []string
	for _, m := range blockMix {
		for k := 0; k < m.n; k++ {
			block = append(block, m.class)
		}
	}
	jobs := make([]streamJob, 0, n)
	var order []string
	for i := 0; i < n; i++ {
		if len(order) == 0 {
			order = append([]string(nil), block...)
			rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		}
		if i == 0 && order[0] == classRepeat {
			// Nothing precedes the first job: trade places with the
			// block's first fresh job, keeping the block's mix.
			k := 1
			for order[k] == classRepeat {
				k++
			}
			order[0], order[k] = order[k], order[0]
		}
		class := order[0]
		order = order[1:]
		j := streamJob{Class: class, Of: i}
		switch class {
		case classRepeat:
			j = jobs[rng.Intn(i)] // keeps Of: the first job with the spec
		case classCompile:
			j.Spec = serve.JobSpec{Kind: "compile", Source: diffcheck.GenMC(rng.Int63()),
				Opt: optLevels[rng.Intn(len(optLevels))]}
		case classSimulateSrc:
			j.Spec = serve.JobSpec{Kind: "simulate", Source: diffcheck.GenMC(rng.Int63()),
				Configs: []serve.ConfigSpec{{Name: []string{"base", "compiler"}[rng.Intn(2)]}},
				Fuel:    wlFuel / 20}
		case classSimulateWL:
			j.Spec = serve.JobSpec{Kind: "simulate", Workload: corpus[rng.Intn(len(corpus))].Name,
				Configs: configPairs[rng.Intn(len(configPairs))],
				Fuel:    wlFuel + rng.Int63n(wlFuel/100+1)}
		}
		jobs = append(jobs, j)
	}
	return jobs
}

// body is the job's POST body.
func (j *streamJob) body() ([]byte, error) {
	b, err := json.Marshal(&j.Spec)
	if err != nil {
		return nil, fmt.Errorf("encode job spec: %w", err)
	}
	return b, nil
}
