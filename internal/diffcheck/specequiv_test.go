package diffcheck

import (
	"testing"

	"elag/internal/asm"
	"elag/internal/workload"

	elag "elag"
)

// TestSpecializeEquivalenceWorkloads replays every embedded benchmark with
// kernel specialization on and off: the specialized kernels must be
// invisible in the metrics on all five reference configurations.
func TestSpecializeEquivalenceWorkloads(t *testing.T) {
	fuel := int64(100_000)
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			p, err := elag.Build(w.Source, elag.BuildOptions{})
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			rep, err := CheckSpecializeEquivalence(p.Machine, Options{Fuel: fuel})
			if err != nil {
				t.Fatalf("check: %v", err)
			}
			if err := rep.Err(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestSpecializeEquivalenceRandomPrograms runs the same check over 200
// seeded random programs (50 under -short). The generator covers the ISA
// corners the workloads miss — calls, every load width, reg+reg
// addressing — so a specialized path that diverges on one shows up here
// first.
func TestSpecializeEquivalenceRandomPrograms(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 50
	}
	for seed := int64(1); seed <= seeds; seed++ {
		src := GenProgram(seed)
		p, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("seed %d: assemble: %v\n%s", seed, err, src)
		}
		rep, err := CheckSpecializeEquivalence(p, Options{Fuel: 400_000})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := rep.Err(); err != nil {
			t.Errorf("seed %d: %v\n%s", seed, err, src)
		}
	}
}
