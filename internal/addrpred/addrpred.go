// Package addrpred implements the paper's table-based load-address
// predictor: a PC-indexed table whose entries hold {tag, predicted address
// (PA), stride (ST), stride confidence (STC)} and follow the
// functioning/learning state machine of Figure 3.
//
// The same state machine is exported as Entry so that the address profiler
// (package profile) and the per-load "unlimited table" prediction-rate
// methodology of Table 2 can reuse it without a tag store.
package addrpred

import "fmt"

// State is the entry state of Figure 3a.
type State uint8

// Entry states.
const (
	// Functioning: PA holds the predicted next address; predictions are
	// made with confidence (STC=1 except immediately after a mismatch).
	Functioning State = iota
	// Learning: a stride mismatch was seen; the entry is re-deriving the
	// stride and PA holds the last observed address.
	Learning
)

func (s State) String() string {
	if s == Functioning {
		return "functioning"
	}
	return "learning"
}

// Entry is one address-table entry (without the tag), i.e. the Figure 3
// state machine. The zero value is an empty entry awaiting Reset.
type Entry struct {
	PA    int64 // predicted address (functioning) / last address (learning)
	ST    int64 // stride
	STC   bool  // stride confidence
	State State
	seen  bool
	// counter is used by PolicyStrideCounter instead of State/STC.
	counter uint8
}

// Reset re-initializes the entry for a newly allocated load, performing the
// Replace arc: PA=CA, ST=0, STC=1, state=functioning.
func (e *Entry) Reset(ca int64) {
	*e = Entry{PA: ca, ST: 0, STC: true, State: Functioning, seen: true}
}

// Valid reports whether the entry has observed at least one address.
func (e *Entry) Valid() bool { return e.seen }

// Predict returns the address the entry would speculate with and whether a
// confident prediction is available. Predictions are made only in the
// functioning state with the stride confidence bit set; a learning entry
// holds the last address, not a prediction, and speculating with it would
// waste a cache port (this is what the STC bit is for).
func (e *Entry) Predict() (addr int64, ok bool) {
	if !e.seen || e.State != Functioning || !e.STC {
		return 0, false
	}
	return e.PA, true
}

// Update advances the state machine with the computed address ca of the
// load's current execution (performed in the MEM stage). It returns whether
// the entry's prediction for this execution — had one been made — was
// correct, i.e. whether Predict would have returned (ca, true) beforehand.
func (e *Entry) Update(ca int64) (wasCorrect bool) {
	if !e.seen {
		e.Reset(ca)
		return false
	}
	if p, ok := e.Predict(); ok && p == ca {
		wasCorrect = true
	}
	switch e.State {
	case Functioning:
		if e.PA == ca {
			// Correct: PA <- CA + ST.
			e.PA = ca + e.ST
		} else {
			// New_Stride: derive a candidate stride and start
			// learning. PA tracks the last observed address so the
			// next update can verify the stride.
			e.ST = ca - e.PA
			e.STC = false
			e.PA = ca
			e.State = Learning
		}
	case Learning:
		if ca-e.PA == e.ST {
			// Verified_Stride: back to functioning.
			e.PA = ca + e.ST
			e.STC = true
			e.State = Functioning
		} else {
			e.ST = ca - e.PA
			e.PA = ca
		}
	}
	return wasCorrect
}

// Config describes the finite PC-indexed prediction table.
type Config struct {
	// Entries is the number of table entries; must be a power of two.
	// Default 256 (the paper's compiler-directed configuration).
	Entries int
	// Assoc is the set associativity. Default 1 (direct-mapped, as in
	// the paper).
	Assoc int
	// Policy selects the prediction algorithm; the zero value is the
	// paper's stride machine. The alternatives implement the cited
	// related work (see Policy).
	Policy Policy
}

// Stats accumulates table behaviour.
type Stats struct {
	Probes      int64 // decode-stage probes
	ProbeHits   int64 // probes that found a matching tag
	Predictions int64 // confident predictions issued
	Correct     int64 // predictions whose PA matched CA
	Allocations int64 // entries (re)allocated, i.e. Replace arcs
}

// HitRate returns ProbeHits/Probes.
func (s Stats) HitRate() float64 {
	if s.Probes == 0 {
		return 0
	}
	return float64(s.ProbeHits) / float64(s.Probes)
}

// Accuracy returns Correct/Predictions.
func (s Stats) Accuracy() float64 {
	if s.Predictions == 0 {
		return 0
	}
	return float64(s.Correct) / float64(s.Predictions)
}

type taggedEntry struct {
	tag int64
	lru int64
	e   Entry
}

// TableEvent describes one training step of a table entry, for observers:
// the state-machine transition performed by an Update, whether the entry
// was freshly allocated (the Replace arc), and whether the prediction the
// entry would have made for this execution was correct.
type TableEvent struct {
	PC       int
	From, To State
	Correct  bool
	Alloc    bool
}

// Table is the finite PC-indexed address prediction table.
type Table struct {
	sets   [][]taggedEntry
	mask   int64
	stamp  int64
	stats  Stats
	policy Policy

	// Observer, when non-nil, receives a TableEvent for every Update and
	// UpdateIfPresent training step. Nil (the default) costs one branch.
	Observer func(TableEvent)
}

// Validate reports whether the configuration (with zero fields defaulted)
// describes a realizable table: a positive power-of-two entry count
// divisible into power-of-two sets by the associativity.
func (c Config) Validate() error {
	n := c.Entries
	if n == 0 {
		n = 256
	}
	assoc := c.Assoc
	if assoc == 0 {
		assoc = 1
	}
	if n <= 0 || assoc <= 0 {
		return fmt.Errorf("addrpred: non-positive geometry %+v", c)
	}
	if n&(n-1) != 0 || n%assoc != 0 {
		return fmt.Errorf("addrpred: entries (%d) must be a power of two and divisible by assoc (%d)", n, assoc)
	}
	if nSets := n / assoc; nSets&(nSets-1) != 0 {
		return fmt.Errorf("addrpred: sets (%d) must be a power of two", n/assoc)
	}
	return nil
}

// NewTable builds a prediction table. Zero config fields take defaults; a
// geometry that fails Validate is returned as an error.
func NewTable(cfg Config) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Entries
	if n == 0 {
		n = 256
	}
	assoc := cfg.Assoc
	if assoc == 0 {
		assoc = 1
	}
	nSets := n / assoc
	t := &Table{sets: make([][]taggedEntry, nSets), mask: int64(nSets - 1), policy: cfg.Policy}
	// One backing array for all sets: two allocations per table instead of
	// one per set.
	entries := make([]taggedEntry, nSets*assoc)
	for i := range t.sets {
		t.sets[i] = entries[i*assoc : (i+1)*assoc : (i+1)*assoc]
	}
	return t, nil
}

// Stats returns accumulated statistics.
func (t *Table) Stats() Stats { return t.stats }

func (t *Table) find(pc int) *taggedEntry {
	set := t.sets[int64(pc)&t.mask]
	for i := range set {
		if te := &set[i]; te.e.Valid() && te.tag == int64(pc) {
			return te
		}
	}
	return nil
}

// Probe looks the load at pc up in the table (ID1 stage). On a tag hit with
// a confident stride it returns the predicted address. It never modifies
// entry state, only statistics.
func (t *Table) Probe(pc int) (addr int64, ok bool) {
	t.stats.Probes++
	te := t.find(pc)
	if te == nil {
		return 0, false
	}
	t.stats.ProbeHits++
	addr, ok = t.policy.predict(&te.e)
	if ok {
		t.stats.Predictions++
	}
	return addr, ok
}

// UpdateIfPresent trains the entry for pc only if one already exists (no
// allocation on miss). The hardware-only dual-path policy gates entry
// allocation on register interlocks but keeps training whatever entries
// exist, so their strides stay current.
func (t *Table) UpdateIfPresent(pc int, ca int64) (wasCorrect bool) {
	if te := t.find(pc); te != nil {
		t.stamp++
		te.lru = t.stamp
		from := te.e.State
		wasCorrect = t.policy.update(&te.e, ca)
		if wasCorrect {
			t.stats.Correct++
		}
		if t.Observer != nil {
			t.Observer(TableEvent{PC: pc, From: from, To: te.e.State, Correct: wasCorrect})
		}
		return wasCorrect
	}
	return false
}

// Update trains the table with the computed address ca of the load at pc
// (MEM stage), allocating an entry on a tag miss. It reports whether a
// confident prediction made for this execution was correct, for statistics.
func (t *Table) Update(pc int, ca int64) (wasCorrect bool) {
	t.stamp++
	set := t.sets[int64(pc)&t.mask]
	if te := t.find(pc); te != nil {
		te.lru = t.stamp
		from := te.e.State
		wasCorrect = t.policy.update(&te.e, ca)
		if wasCorrect {
			t.stats.Correct++
		}
		if t.Observer != nil {
			t.Observer(TableEvent{PC: pc, From: from, To: te.e.State, Correct: wasCorrect})
		}
		return wasCorrect
	}
	// Replace: allocate, evicting the LRU way; the first update of a
	// fresh entry is the policy's allocation arc (the paper's Replace).
	victim := &set[0]
	for i := range set {
		te := &set[i]
		if !te.e.Valid() {
			victim = te
			break
		}
		if te.lru < victim.lru {
			victim = te
		}
	}
	victim.tag = int64(pc)
	victim.lru = t.stamp
	victim.e = Entry{}
	t.policy.update(&victim.e, ca)
	t.stats.Allocations++
	if t.Observer != nil {
		t.Observer(TableEvent{PC: pc, To: victim.e.State, Alloc: true})
	}
	return false
}
