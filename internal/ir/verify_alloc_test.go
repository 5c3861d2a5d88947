package ir_test

import (
	"testing"

	"elag"
	"elag/internal/ir"
	"elag/internal/workload"
)

// maxVerifyAllocs bounds the allocations of one VerifyFunc call on a
// well-formed function. The verifier's scratch space is sized once per call,
// so the bound holds whatever the function's size and however many
// dataflow iterations it needs.
const maxVerifyAllocs = 8

// TestVerifyFuncAllocs runs the verifier over every function of every
// built workload and checks the per-call allocation count.
func TestVerifyFuncAllocs(t *testing.T) {
	for _, w := range workload.All() {
		p, err := elag.Build(w.Source, elag.BuildOptions{})
		if err != nil {
			t.Fatalf("%s: build: %v", w.Name, err)
		}
		for _, f := range p.Module.Funcs {
			if err := ir.VerifyFunc(f); err != nil {
				t.Fatalf("%s/%s: %v", w.Name, f.Name, err)
			}
			allocs := testing.AllocsPerRun(5, func() { ir.VerifyFunc(f) })
			if allocs > maxVerifyAllocs {
				t.Errorf("%s/%s (%d blocks, %d vregs): VerifyFunc allocates %.0f times per call, want <= %d",
					w.Name, f.Name, len(f.Blocks), f.NumVRegs(), allocs, maxVerifyAllocs)
			}
		}
	}
}
