package harness_test

import (
	"context"
	"testing"

	"elag/internal/harness"
	"elag/internal/workload"
)

// ctx is the no-deadline context the tests run under; cancellation paths
// have their own dedicated tests.
var ctx = context.Background()

// quickRunner bounds per-benchmark work so the experiment tests stay fast;
// the full-length runs live in the top-level benchmark harness.
func quickRunner() *harness.Runner {
	return &harness.Runner{Fuel: 250_000}
}

func TestLabPreparesEverything(t *testing.T) {
	r := quickRunner()
	l, err := r.Lab(ctx, workload.Get("023.eqntott"))
	if err != nil {
		t.Fatal(err)
	}
	if l.Heur == nil || l.Reclass == nil || l.Profile == nil {
		t.Fatalf("lab incomplete")
	}
	if l.EmuRes.DynamicInsts == 0 {
		t.Fatalf("no instructions retired")
	}
	base, err := l.BaseCycles(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if base <= 0 {
		t.Fatalf("base cycles = %d", base)
	}
	// A streamed replay retires exactly the profile run's instructions.
	m, err := l.Simulate(ctx, harness.CompilerDual(), l.HeurFlavors)
	if err != nil {
		t.Fatal(err)
	}
	if m.Insts != l.EmuRes.DynamicInsts {
		t.Fatalf("replay retired %d, profile run retired %d", m.Insts, l.EmuRes.DynamicInsts)
	}
	// Lab caching: same pointer for the same workload.
	l2, err := r.Lab(ctx, workload.Get("023.eqntott"))
	if err != nil {
		t.Fatal(err)
	}
	if l2 != l {
		t.Errorf("lab not cached")
	}
}

func TestSpeedupsAtLeastNotAbsurd(t *testing.T) {
	r := quickRunner()
	l, err := r.Lab(ctx, workload.Get("008.espresso"))
	if err != nil {
		t.Fatal(err)
	}
	base, err := l.BaseCycles(ctx)
	if err != nil {
		t.Fatal(err)
	}
	m, err := l.Simulate(ctx, harness.CompilerDual(), l.HeurFlavors)
	if err != nil {
		t.Fatal(err)
	}
	sp := float64(base) / float64(m.Cycles)
	if sp < 0.9 || sp > 4 {
		t.Errorf("espresso compiler-dual speedup = %.2f out of plausible range", sp)
	}
}

func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all 12 SPEC-like benchmarks")
	}
	r := quickRunner()
	rows, err := r.Table2(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 13 { // 12 benchmarks + average
		t.Fatalf("%d rows, want 13", len(rows))
	}
	avg := rows[len(rows)-1]
	if avg.Name != "average" {
		t.Fatalf("last row is %q", avg.Name)
	}
	// The paper's headline classification property: PD loads predict far
	// better than NT loads on average.
	if avg.RatePD <= avg.RateNT {
		t.Errorf("PD rate (%.1f) not above NT rate (%.1f): classification "+
			"is not separating predictable loads", avg.RatePD, avg.RateNT)
	}
	if avg.RatePD < 80 {
		t.Errorf("average PD prediction rate %.1f < 80%%", avg.RatePD)
	}
	for _, row := range rows {
		sum := row.StaticNT + row.StaticPD + row.StaticEC
		if sum < 99.9 || sum > 100.1 {
			t.Errorf("%s: static shares sum to %.2f", row.Name, sum)
		}
		dsum := row.DynNT + row.DynPD + row.DynEC
		if dsum < 99.9 || dsum > 100.1 {
			t.Errorf("%s: dynamic shares sum to %.2f", row.Name, dsum)
		}
	}
	out := harness.FormatTable2(rows)
	if len(out) == 0 {
		t.Errorf("empty rendering")
	}
}

func TestTable3ProfileNeverHurtsMuch(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	r := quickRunner()
	t3, err := r.Table3(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(t3) != 13 {
		t.Fatalf("%d rows", len(t3))
	}
	avg := t3[len(t3)-1]
	if avg.Speedup < 1.0 {
		t.Errorf("average profiled speedup %.3f < 1.0", avg.Speedup)
	}
	_ = harness.FormatTable3(t3)
}

func TestFigure5aCompilerHelpsSmallTables(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	r := quickRunner()
	fig, err := r.Figure5a(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 6 {
		t.Fatalf("%d series", len(fig.Series))
	}
	byLabel := map[string]float64{}
	for _, s := range fig.Series {
		byLabel[s.Label] = s.Average
	}
	// Larger tables never hurt on average.
	if byLabel["hw-only 32"] < byLabel["hw-only 8"]-0.01 {
		t.Errorf("larger hw-only table slower: %v", byLabel)
	}
	if byLabel["compiler 32"] < byLabel["compiler 8"]-0.01 {
		t.Errorf("larger compiler table slower: %v", byLabel)
	}
	// The paper's contention argument: with a small table, keeping
	// unpredictable loads out (compiler support) must help.
	if byLabel["compiler 8"] < byLabel["hw-only 8"]-0.02 {
		t.Errorf("compiler support hurt at the smallest table: %v", byLabel)
	}
	_ = harness.FormatFigure(fig)
}

func TestFigure5cOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	r := quickRunner()
	fig, err := r.Figure5c(ctx)
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]float64{}
	for _, s := range fig.Series {
		byLabel[s.Label] = s.Average
	}
	// The paper's headline orderings.
	if byLabel["compiler dual+profile"] < byLabel["compiler dual"]-0.005 {
		t.Errorf("profiling hurt the compiler scheme: %v", byLabel)
	}
	if byLabel["compiler dual"] <= byLabel["hw-dual"] {
		t.Errorf("compiler-directed dual did not beat the hardware-only dual: %v", byLabel)
	}
}

func TestTable4MediaBench(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	r := quickRunner()
	rows, err := r.Table4(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 14 { // 13 + average
		t.Fatalf("%d rows", len(rows))
	}
	avg := rows[len(rows)-1]
	if avg.Speedup < 1.0 {
		t.Errorf("MediaBench average speedup %.3f < 1", avg.Speedup)
	}
	if avg.RatePD <= avg.RateNT {
		t.Errorf("MediaBench PD rate not above NT rate: %.1f vs %.1f",
			avg.RatePD, avg.RateNT)
	}
	_ = harness.FormatTable4(rows)
}

func TestEmbeddedExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	r := quickRunner()
	rows, err := r.Embedded(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 14 {
		t.Fatalf("%d rows", len(rows))
	}
	avg := rows[len(rows)-1]
	if avg.CompilerSpeedup < 1.0 {
		t.Errorf("embedded compiler speedup %.3f < 1", avg.CompilerSpeedup)
	}
	// The Section 5.4 argument: the compiler scheme with 1/8th of the
	// register-cache hardware must at least match the hardware-only dual.
	if avg.CompilerSpeedup < avg.HWDualSpeedup-0.02 {
		t.Errorf("embedded compiler (%.3f) fell behind hw-dual (%.3f)",
			avg.CompilerSpeedup, avg.HWDualSpeedup)
	}
	_ = harness.FormatEmbedded(rows)
}
