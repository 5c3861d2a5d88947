package diffcheck

import (
	"testing"

	"elag/internal/asm"
	"elag/internal/workload"

	elag "elag"
)

// TestMechEquivalenceWorkloads runs the mechanism-layer differential suite
// over every embedded benchmark: the registry-spec forms of the paper
// mechanisms must be metric-identical to the typed forms, and the stride
// and pcax assist mechanisms must hold every invariant (lockstep,
// transparency, counter algebra, steering, streaming, specialized vs
// generic replay).
func TestMechEquivalenceWorkloads(t *testing.T) {
	fuel := int64(100_000)
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			p, err := elag.Build(w.Source, elag.BuildOptions{})
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			rep, err := CheckMechEquivalence(p.Machine, Options{Fuel: fuel})
			if err != nil {
				t.Fatalf("check: %v", err)
			}
			if err := rep.Err(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestMechEquivalenceRandomPrograms sweeps the mechanism suite over 200
// seeded random programs (50 under -short). The generator covers ISA
// corners the workloads miss — calls, every load width, reg+reg addressing
// — so an assist mechanism whose training order diverges between chunked
// and whole-trace replays shows up here first.
func TestMechEquivalenceRandomPrograms(t *testing.T) {
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
		rep, err := CheckMechEquivalence(p, Options{Fuel: 200_000})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := rep.Err(); err != nil {
			t.Errorf("seed %d: %v\n%s", seed, err, src)
		}
	}
}

// TestMechConfigsValidate guards the reference geometries themselves: every
// configuration MechConfigs returns must pass pipeline validation, and the
// two new assist kinds must be present in it.
func TestMechConfigsValidate(t *testing.T) {
	kinds := map[string]bool{}
	for _, nc := range MechConfigs() {
		cfg := nc.Config
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", nc.Name, err)
		}
		for _, sp := range cfg.Mechanisms {
			kinds[sp.Kind] = true
		}
	}
	for _, want := range []string{"addrpred", "earlycalc", "stride", "pcax"} {
		if !kinds[want] {
			t.Errorf("MechConfigs exercises no %q spec", want)
		}
	}
}
