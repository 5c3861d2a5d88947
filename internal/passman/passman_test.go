package passman_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"elag/internal/ir"
	"elag/internal/mcc"
	"elag/internal/opt"
	"elag/internal/passman"
)

const tinyProg = `
int g[8];
int sum(int n) {
	int s = 0;
	for (int i = 0; i < n; i = i + 1) { s = s + g[i]; }
	return s;
}
int main() { g[2] = 5; print_int(sum(8)); return 0; }
`

func compile(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := mcc.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return m
}

func countInsts(m *ir.Module) int {
	n := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Insts)
		}
	}
	return n
}

func TestParseOptLevel(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want passman.OptLevel
	}{
		{"0", passman.O0}, {"1", passman.O1}, {"2", passman.O2},
		{"O0", passman.O0}, {"o1", passman.O1}, {"O2", passman.O2},
	} {
		got, err := passman.ParseOptLevel(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseOptLevel(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := passman.ParseOptLevel("3"); err == nil {
		t.Errorf("ParseOptLevel(3) accepted")
	}
	if _, err := passman.ParseOptLevel("fast"); err == nil {
		t.Errorf("ParseOptLevel(fast) accepted")
	}
}

func TestForLevelShapes(t *testing.T) {
	o0 := passman.ForLevel(passman.O0, true).Names()
	if o0 != "lower,classify" {
		t.Errorf("O0 pipeline = %q", o0)
	}
	o1 := passman.ForLevel(passman.O1, true).Names()
	if strings.Contains(o1, "inline") || strings.Contains(o1, "licm") || strings.Contains(o1, "matsym") {
		t.Errorf("O1 pipeline contains loop/inline passes: %q", o1)
	}
	o2 := passman.ForLevel(passman.O2, true).Names()
	for _, want := range []string{"inline", "licm", "iv", "matsym", "lower", "classify"} {
		if !strings.Contains(o2, want) {
			t.Errorf("O2 pipeline missing %s: %q", want, o2)
		}
	}
	noClassify := passman.ForLevel(passman.O2, false).Names()
	if strings.Contains(noClassify, "classify") {
		t.Errorf("classify present with classification disabled: %q", noClassify)
	}
}

func TestLegacyHonorsDisables(t *testing.T) {
	pl := passman.Legacy(opt.Options{
		DisableInline: true, DisableLICM: true,
		DisableStrengthReduce: true, DisableRLE: true,
	}, true).Names()
	for _, banned := range []string{"inline", "licm", "rle", "iv"} {
		if strings.Contains(pl, banned) {
			t.Errorf("disabled pass %s still scheduled: %q", banned, pl)
		}
	}
	// The legacy schedule folds addressing modes every round when
	// strength reduction is off.
	if !strings.Contains(pl, "fold") {
		t.Errorf("fold member missing from SR-disabled schedule: %q", pl)
	}
}

func TestParseSpecs(t *testing.T) {
	good := []struct{ spec, want string }{
		{"lower", "lower,classify"},
		{"dce", "dce,lower,classify"},
		{"fixpoint(constprop,dce)", "fixpoint(constprop,dce),lower,classify"},
		{"fixpoint:3(constprop,dce),matsym", "fixpoint(constprop,dce),matsym,lower,classify"},
		{"inline,lower,classify-additive", "inline,lower,classify-additive"},
		{"lower,classify,profile-promote", "lower,classify,profile-promote"},
	}
	for _, tc := range good {
		pl, err := passman.Parse(tc.spec, true)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.spec, err)
			continue
		}
		if pl.Names() != tc.want {
			t.Errorf("Parse(%q) = %q, want %q", tc.spec, pl.Names(), tc.want)
		}
	}
	bad := []string{
		"bogus",               // unknown pass
		"lower,dce",           // IR pass after lower
		"classify,lower",      // machine pass before lower
		"lower,lower",         // duplicate lower
		"fixpoint(constprop",  // unbalanced
		"fixpoint(lower)",     // not a per-function pass
		"fixpoint:0(dce)",     // bad iteration bound
		"fixpoint()",          // empty group
		"lower,fixpoint(dce)", // group after lower
		"dce,,lower",          // empty step
	}
	for _, spec := range bad {
		if _, err := passman.Parse(spec, true); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
}

func TestManagerRunsLevels(t *testing.T) {
	for _, lvl := range []passman.OptLevel{passman.O0, passman.O1, passman.O2} {
		st := &passman.State{Module: compile(t, tinyProg)}
		mgr := passman.Manager{Verify: true}
		if err := mgr.Run(passman.ForLevel(lvl, true), st); err != nil {
			t.Fatalf("%v: %v", lvl, err)
		}
		if st.Machine == nil || st.Asm == "" {
			t.Fatalf("%v: no machine program produced", lvl)
		}
		if st.Classes == nil || st.Classes.StaticTotal() == 0 {
			t.Fatalf("%v: no classification produced", lvl)
		}
	}
}

func TestManagerCollectsStats(t *testing.T) {
	var stats passman.Stats
	st := &passman.State{Module: compile(t, tinyProg)}
	mgr := passman.Manager{Verify: true, Stats: &stats}
	if err := mgr.Run(passman.ForLevel(passman.O2, true), st); err != nil {
		t.Fatal(err)
	}
	passes := stats.Passes()
	if len(passes) == 0 {
		t.Fatal("no per-pass stats collected")
	}
	seen := map[string]bool{}
	for _, ps := range passes {
		seen[ps.Name] = true
		if ps.Runs == 0 {
			t.Errorf("pass %s recorded with zero runs", ps.Name)
		}
	}
	for _, want := range []string{"inline", "constprop", "dce", "lower", "classify"} {
		if !seen[want] {
			t.Errorf("no stats for pass %s", want)
		}
	}
	if stats.VerifyWallNS <= 0 {
		t.Errorf("VerifyWallNS = %d with verification on, want > 0", stats.VerifyWallNS)
	}
	var off passman.Stats
	mgr = passman.Manager{Stats: &off}
	if err := mgr.Run(passman.ForLevel(passman.O2, true), &passman.State{Module: compile(t, tinyProg)}); err != nil {
		t.Fatal(err)
	}
	if off.VerifyWallNS != 0 {
		t.Errorf("VerifyWallNS = %d with verification off, want 0", off.VerifyWallNS)
	}

	var buf bytes.Buffer
	doc := passman.NewStatsDoc("tiny", "o2", &stats)
	if err := passman.WriteStatsJSON(&buf, doc); err != nil {
		t.Fatal(err)
	}
	var back passman.StatsDoc
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("stats JSON does not round-trip: %v", err)
	}
	if back.Schema != passman.StatsSchema {
		t.Errorf("schema = %q, want %q", back.Schema, passman.StatsSchema)
	}
	if len(back.Passes) != len(passes) {
		t.Errorf("round-trip lost passes: %d vs %d", len(back.Passes), len(passes))
	}
	if stats.Summary() == "" {
		t.Errorf("empty human-readable summary")
	}
}

func TestManagerDumpAfter(t *testing.T) {
	st := &passman.State{Module: compile(t, tinyProg)}
	mgr := passman.Manager{Verify: true, DumpAfter: "dce"}
	if err := mgr.Run(passman.ForLevel(passman.O2, true), st); err != nil {
		t.Fatal(err)
	}
	if len(mgr.Dumps) == 0 {
		t.Fatal("no IR dumps collected for dce")
	}
	for _, d := range mgr.Dumps {
		if d.Pass != "dce" {
			t.Errorf("dump for pass %q, want dce", d.Pass)
		}
		if !strings.Contains(d.Text, "func ") {
			t.Errorf("dump does not look like IR: %q", d.Text[:min(len(d.Text), 80)])
		}
	}
}

func TestManagerVerifyCatchesBrokenPass(t *testing.T) {
	breaker := &passman.Pass{
		Name: "breaker",
		Kind: passman.KindIR,
		Run: func(st *passman.State) (bool, error) {
			// Chop the terminator off the entry block of main.
			f := st.Module.Funcs[0]
			b := f.Blocks[0]
			b.Insts = b.Insts[:len(b.Insts)-1]
			return true, nil
		},
	}
	st := &passman.State{Module: compile(t, tinyProg)}
	mgr := passman.Manager{Verify: true}
	err := mgr.Run(passman.Pipeline{breaker, passman.LowerPass()}, st)
	if err == nil {
		t.Fatal("corrupted module slipped through verification")
	}
	if !strings.Contains(err.Error(), "breaker") {
		t.Errorf("violation not attributed to the breaking pass: %v", err)
	}
}

func TestOptimizeIsIdempotent(t *testing.T) {
	m := compile(t, tinyProg)
	if err := passman.Optimize(m, opt.Options{}); err != nil {
		t.Fatal(err)
	}
	before := countInsts(m)
	if err := passman.Optimize(m, opt.Options{}); err != nil {
		t.Fatal(err)
	}
	if got := countInsts(m); got != before {
		t.Errorf("second Optimize changed the program: %d -> %d insts", before, got)
	}
}

func TestOptimizeAllDisablesTerminates(t *testing.T) {
	m := compile(t, tinyProg)
	if err := passman.Optimize(m, opt.Options{
		DisableInline: true, DisableLICM: true,
		DisableStrengthReduce: true, DisableRLE: true,
	}); err != nil {
		t.Fatal(err)
	}
	if len(m.Funcs) == 0 || len(m.Funcs[0].Blocks) == 0 {
		t.Errorf("module destroyed")
	}
}

func TestNamesAndDescribe(t *testing.T) {
	names := passman.Names()
	if len(names) == 0 {
		t.Fatal("no registered passes")
	}
	for _, n := range names {
		if passman.Describe(n) == "" {
			t.Errorf("pass %s has no description", n)
		}
		if _, err := passman.Parse(n, false); err != nil &&
			!strings.Contains(err.Error(), "before lower") {
			t.Errorf("registered pass %s does not parse: %v", n, err)
		}
	}
	if _, ok := passman.LookupFunc("dce"); !ok {
		t.Errorf("dce not resolvable as a function pass")
	}
	if _, ok := passman.LookupFunc("lower"); ok {
		t.Errorf("lower resolved as a function pass")
	}
}
