// Package mech is the pluggable load-acceleration mechanism layer.
//
// The paper evaluates exactly three early-address flavours — no table, the
// PC-indexed address-prediction table (addrpred) and the compiler-directed
// addressing-register cache (earlycalc) — and the original simulator named
// those two packages concretely in its configuration, kernels and
// exporters. This package turns the seam into a registry so a fourth
// mechanism is one self-contained unit under internal/mech/... plus a spec
// string, not surgery on every layer:
//
//   - Spec names a mechanism by registry kind plus geometry and has a
//     stable string form ("stride:64", "pcax:256x4") shared by the CLI
//     flags, the serve job API and the harness series definitions.
//   - Mechanism is the five-method contract the pipeline drives: Kind, a
//     PC-indexed Lookup/Train pair for the assist path, Stats, and
//     SetObserver for the event stream.
//   - The registry (Register/New/Validate/Kinds/Describe) is populated at
//     init time. The two paper mechanisms are spec-only rows registered in
//     this package (see paper.go): they have a description and a
//     validator but no factory, because pipeline.New turns their specs
//     into the concrete table and register cache its dedicated ld_p/ld_e
//     paths drive. New mechanisms self-register a factory from their own
//     package and are linked in via the blank-import package
//     internal/mech/all. See DESIGN.md §17.
package mech

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Spec identifies a mechanism: a registry kind plus optional geometry.
// The zero Entries/Assoc pick the kind's defaults.
type Spec struct {
	// Kind is the registry name ("addrpred", "earlycalc", "stride", ...).
	Kind string `json:"kind"`
	// Entries is the total entry count (0 = the kind's default).
	Entries int `json:"entries,omitempty"`
	// Assoc is the set associativity (0 = the kind's default).
	Assoc int `json:"assoc,omitempty"`
}

// String renders the spec in the canonical flag form
// "kind[:entries[xassoc]]"; zero geometry fields are omitted.
func (s Spec) String() string {
	out := s.Kind
	if s.Entries != 0 || s.Assoc != 0 {
		out += ":" + strconv.Itoa(s.Entries)
		if s.Assoc != 0 {
			out += "x" + strconv.Itoa(s.Assoc)
		}
	}
	return out
}

// ParseSpec parses the canonical "kind[:entries[xassoc]]" form. It checks
// syntax only; Validate checks the kind and geometry against the registry.
func ParseSpec(str string) (Spec, error) {
	kind, geom, hasGeom := strings.Cut(str, ":")
	if kind == "" {
		return Spec{}, fmt.Errorf("mechanism spec %q: empty kind", str)
	}
	sp := Spec{Kind: kind}
	if !hasGeom {
		return sp, nil
	}
	ent, assoc, hasAssoc := strings.Cut(geom, "x")
	n, err := strconv.Atoi(ent)
	if err != nil || n <= 0 {
		return Spec{}, fmt.Errorf("mechanism spec %q: bad entry count %q", str, ent)
	}
	sp.Entries = n
	if hasAssoc {
		a, err := strconv.Atoi(assoc)
		if err != nil || a <= 0 {
			return Spec{}, fmt.Errorf("mechanism spec %q: bad associativity %q", str, assoc)
		}
		sp.Assoc = a
	}
	return sp, nil
}

// Stats counts a mechanism's behaviour. The algebra Lookups == Hits +
// Misses holds for every implementation (asserted by the differential
// checker and the service's chaos suite).
type Stats struct {
	// Lookups counts assist-path probes.
	Lookups int64 `json:"lookups"`
	// Hits counts probes that produced a predicted address.
	Hits int64 `json:"hits"`
	// Misses counts probes that produced nothing.
	Misses int64 `json:"misses"`
	// Trains counts retirement-side updates.
	Trains int64 `json:"trains"`
	// Allocs counts entry allocations (a subset of Trains).
	Allocs int64 `json:"allocs"`
}

// EventOp discriminates observer events.
type EventOp uint8

const (
	// EvLookup — an assist-path probe (Hit says whether it predicted).
	EvLookup EventOp = iota
	// EvTrain — a retirement-side update of an existing entry.
	EvTrain
	// EvAlloc — a retirement-side update that allocated a new entry.
	EvAlloc
)

// Event is one observable mechanism occurrence.
type Event struct {
	Op   EventOp
	PC   int64
	Addr int64
	Hit  bool
}

// Mechanism is the contract a load-acceleration mechanism implements. The
// pipeline drives Lookup at decode/speculation time and Train at the MEM
// stage of every retiring load; the event stream attaches through the
// observer hook.
type Mechanism interface {
	// Kind returns the registry kind this instance was built from.
	Kind() string
	// Lookup probes the mechanism for load PC pc and returns a predicted
	// effective address.
	Lookup(pc int64) (addr int64, ok bool)
	// Train observes a retiring load: PC pc accessed effective address ea.
	Train(pc, ea int64)
	// Stats returns the cumulative counters.
	Stats() Stats
	// SetObserver attaches (or with nil detaches) an event observer.
	SetObserver(func(Event))
}

// KindDesc is one registry row for help output.
type KindDesc struct {
	Kind string
	Desc string
}

type kindInfo struct {
	desc     string
	factory  func(Spec) (Mechanism, error)
	validate func(Spec) error
}

var (
	regMu    sync.RWMutex
	registry = map[string]kindInfo{}
)

// Register adds a mechanism kind to the registry. factory builds an
// instance from a spec (nil registers a spec-only kind that the pipeline
// builds directly); validate checks a spec's geometry without building
// (nil means any geometry is accepted). Kinds register at init time;
// duplicate registration panics.
func Register(kind, desc string, factory func(Spec) (Mechanism, error), validate func(Spec) error) {
	regMu.Lock()
	defer regMu.Unlock()
	if kind == "" {
		panic("mech: Register with empty kind")
	}
	if _, dup := registry[kind]; dup {
		panic("mech: duplicate Register of kind " + kind)
	}
	registry[kind] = kindInfo{desc: desc, factory: factory, validate: validate}
}

func lookupKind(kind string) (kindInfo, error) {
	regMu.RLock()
	info, ok := registry[kind]
	regMu.RUnlock()
	if !ok {
		return kindInfo{}, fmt.Errorf("unknown mechanism kind %q (known: %s)", kind, strings.Join(Kinds(), ", "))
	}
	return info, nil
}

// New builds a mechanism instance from a spec. A spec-only kind (one of
// the paper's two mechanisms) is an error: pipeline.New builds those
// directly from the spec.
func New(s Spec) (Mechanism, error) {
	info, err := lookupKind(s.Kind)
	if err != nil {
		return nil, err
	}
	if info.factory == nil {
		return nil, fmt.Errorf("mechanism kind %q has no instance: the pipeline builds it directly from the spec", s.Kind)
	}
	if info.validate != nil {
		if err := info.validate(s); err != nil {
			return nil, err
		}
	}
	return info.factory(s)
}

// Validate checks a spec against the registry without building an instance.
func Validate(s Spec) error {
	info, err := lookupKind(s.Kind)
	if err != nil {
		return err
	}
	if info.validate != nil {
		return info.validate(s)
	}
	return nil
}

// Kinds returns the registered kind names, sorted.
func Kinds() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Describe returns one row per registered kind, sorted by kind.
func Describe() []KindDesc {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]KindDesc, 0, len(registry))
	for k, info := range registry {
		out = append(out, KindDesc{Kind: k, Desc: info.desc})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

// PowerOfTwo reports whether n is a positive power of two — the geometry
// convention every built-in mechanism shares.
func PowerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }
