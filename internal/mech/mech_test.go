package mech_test

import (
	"testing"

	"elag/internal/mech"
	_ "elag/internal/mech/all"
)

func TestParseSpecRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want mech.Spec
	}{
		{"stride", mech.Spec{Kind: "stride"}},
		{"stride:64", mech.Spec{Kind: "stride", Entries: 64}},
		{"pcax:256x4", mech.Spec{Kind: "pcax", Entries: 256, Assoc: 4}},
		{"addrpred:1024", mech.Spec{Kind: "addrpred", Entries: 1024}},
	}
	for _, c := range cases {
		got, err := mech.ParseSpec(c.in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", c.in, got, c.want)
		}
		if got.String() != c.in {
			t.Errorf("Spec(%+v).String() = %q, want %q", got, got.String(), c.in)
		}
	}
	for _, bad := range []string{"", ":64", "stride:", "stride:0", "stride:64x", "stride:64x0", "stride:abc"} {
		if _, err := mech.ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q): want error", bad)
		}
	}
}

func TestRegistry(t *testing.T) {
	kinds := mech.Kinds()
	want := map[string]bool{"addrpred": true, "earlycalc": true, "stride": true, "pcax": true}
	for _, k := range kinds {
		delete(want, k)
	}
	if len(want) != 0 {
		t.Fatalf("Kinds() = %v, missing %v", kinds, want)
	}
	if len(mech.Describe()) != len(kinds) {
		t.Errorf("Describe() rows (%d) != Kinds() (%d)", len(mech.Describe()), len(kinds))
	}
	if _, err := mech.New(mech.Spec{Kind: "no-such"}); err == nil {
		t.Error("New(unknown kind): want error")
	}
	// The paper kinds are spec-only rows: they validate, but the pipeline
	// builds them directly, so the registry constructs no instance.
	for _, kind := range []string{"addrpred", "earlycalc"} {
		if err := mech.Validate(mech.Spec{Kind: kind}); err != nil {
			t.Errorf("Validate(%s): %v", kind, err)
		}
		if _, err := mech.New(mech.Spec{Kind: kind}); err == nil {
			t.Errorf("New(%s): want spec-only error", kind)
		}
	}
	if err := mech.Validate(mech.Spec{Kind: "stride", Entries: 48}); err == nil {
		t.Error("Validate(stride:48): want power-of-two error")
	}
	if err := mech.Validate(mech.Spec{Kind: "pcax", Entries: 64, Assoc: 3}); err == nil {
		t.Error("Validate(pcax:64x3): want divisibility error")
	}
}

// checkAlgebra asserts the Stats contract every mechanism shares.
func checkAlgebra(t *testing.T, m mech.Mechanism) {
	t.Helper()
	s := m.Stats()
	if s.Lookups != s.Hits+s.Misses {
		t.Errorf("%s: Lookups (%d) != Hits (%d) + Misses (%d)", m.Kind(), s.Lookups, s.Hits, s.Misses)
	}
	if s.Allocs > s.Trains {
		t.Errorf("%s: Allocs (%d) > Trains (%d)", m.Kind(), s.Allocs, s.Trains)
	}
}

func TestStridePredicts(t *testing.T) {
	m, err := mech.New(mech.Spec{Kind: "stride", Entries: 64})
	if err != nil {
		t.Fatal(err)
	}
	const pc, base, stride = 17, 1000, 8
	for i := int64(0); i < 4; i++ {
		if _, ok := m.Lookup(pc); ok && i < 3 {
			t.Fatalf("predicted before confidence (train %d)", i)
		}
		m.Train(pc, base+i*stride)
	}
	addr, ok := m.Lookup(pc)
	if !ok || addr != base+4*stride {
		t.Fatalf("Lookup = (%d, %v), want (%d, true)", addr, ok, base+4*stride)
	}
	// A conflicting PC in the same direct-mapped slot evicts.
	m.Train(pc+64, 5000)
	if _, ok := m.Lookup(pc); ok {
		t.Fatal("predicted after conflict eviction")
	}
	checkAlgebra(t, m)
}

func TestPCAXPredicts(t *testing.T) {
	m, err := mech.New(mech.Spec{Kind: "pcax", Entries: 64, Assoc: 4})
	if err != nil {
		t.Fatal(err)
	}
	const pc, base, delta = 33, 2000, 16
	m.Train(pc, base)
	if _, ok := m.Lookup(pc); ok {
		t.Fatal("fresh entry predicted")
	}
	m.Train(pc, base+delta)
	if _, ok := m.Lookup(pc); ok {
		t.Fatal("one delta predicted")
	}
	m.Train(pc, base+2*delta)
	addr, ok := m.Lookup(pc)
	if !ok || addr != base+3*delta {
		t.Fatalf("Lookup = (%d, %v), want (%d, true)", addr, ok, base+3*delta)
	}
	// Associativity: three more PCs in the same set coexist with pc.
	for i := int64(1); i <= 3; i++ {
		m.Train(pc+16*i, 9000+i)
	}
	if _, ok := m.Lookup(pc); !ok {
		t.Fatal("entry lost despite free ways")
	}
	checkAlgebra(t, m)
}

// TestObserverToggle: an attached observer sees every lookup and train; a
// detached one sees none.
func TestObserverToggle(t *testing.T) {
	for _, kind := range []string{"stride", "pcax"} {
		m, err := mech.New(mech.Spec{Kind: kind, Entries: 16})
		if err != nil {
			t.Fatal(err)
		}
		var n int
		m.SetObserver(func(mech.Event) { n++ })
		m.Train(1, 100)
		m.Lookup(1)
		if n != 2 {
			t.Fatalf("%s: attached observer saw %d events, want 2", kind, n)
		}
		m.SetObserver(nil)
		n = 0
		m.Train(1, 108)
		m.Lookup(1)
		if n != 0 {
			t.Fatalf("%s: detached observer saw %d events", kind, n)
		}
		checkAlgebra(t, m)
	}
}
