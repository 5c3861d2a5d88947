package core_test

import (
	"strings"
	"testing"

	"elag"
	"elag/internal/core"
)

// TestDumpStructureNamesDeterministic: when a function's label shares its
// pc with a block label (here _main and _main$B0 after O2 inlining),
// splitFunctions must pick the same name on every call — the function
// label, not the block label.
func TestDumpStructureNamesDeterministic(t *testing.T) {
	const src = `int f(int n) { while (n > 0) { n = n - 1; } return n; } int main() { return f(5); }`
	p, err := elag.Build(src, elag.BuildOptions{Level: elag.O2})
	if err != nil {
		t.Fatal(err)
	}
	first := core.DumpStructure(p.Machine)
	if !strings.Contains(first, "func _main ") {
		t.Fatalf("structure dump does not name _main:\n%s", first)
	}
	for i := 0; i < 50; i++ {
		if got := core.DumpStructure(p.Machine); got != first {
			t.Fatalf("call %d: dump differs\nfirst:\n%s\nnow:\n%s", i, first, got)
		}
	}
}
