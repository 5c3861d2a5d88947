package serve

import (
	"encoding/json"

	"elag/internal/artifact"
	"elag/internal/harness"
	"elag/internal/workload"
)

// resultKeySchema versions the cache-key derivation AND the shape of the
// cached result bytes together: any change to either — key fields, result
// document layout, replay semantics that could alter output bytes — must
// bump it, instantly invalidating every artifact derived under the old
// schema.
const resultKeySchema = "elag-serve-result/v1"

// ResultKey derives the content-address of a job's result from everything
// the result bytes depend on. The derivation leans on the repo's
// determinism guarantees (DESIGN.md §10/§11/§15): grid and simulate
// output is byte-identical at every parallelism, batching and
// kernel-specialization setting, so none of those appear in the key.
// DeadlineMS is excluded because it changes whether a result exists, not
// what its bytes are. Fuel and chunk size are included: fuel truncates
// the trace and chunk size is part of the declared result identity.
//
// elag-sim derives keys through this same function, so a CLI run and a
// server job that describe the same computation share one artifact.
func ResultKey(spec *JobSpec) artifact.Key {
	d := artifact.NewDigest(resultKeySchema)
	d.Str("kind", spec.Kind)
	switch spec.Kind {
	case KindCompile:
		d.Str("source", spec.Source)
		d.Str("opt", spec.Opt)
	case KindSimulate:
		if spec.Workload != "" {
			// Key the workload by name AND source: a workload edit in a
			// newer binary must not resurrect results computed from the
			// old program text.
			d.Str("workload", spec.Workload)
			if w := workload.Get(spec.Workload); w != nil {
				d.Str("workload_source", w.Source)
			}
		} else {
			d.Str("source", spec.Source)
		}
		for _, c := range spec.Configs {
			d.Str("config", c.Name)
			d.Int("table", int64(c.Table))
			d.Int("regs", int64(c.Regs))
			// Gated on non-empty so every pre-mechanism key derivation is
			// bit-for-bit unchanged: old cached results stay addressable,
			// and a mechanism-bearing config can never alias a plain one.
			if c.Mech != "" {
				d.Str("mech", c.Mech)
			}
		}
		d.Int("fuel", spec.Fuel)
		d.Int("chunk", int64(spec.Chunk))
	case KindGrid:
		exp := spec.Exp
		if exp == "" {
			exp = "all"
		}
		d.Str("exp", exp)
		// The grid result is a BenchDocument; its schema participates so a
		// document-shape bump invalidates grid artifacts without touching
		// compile/simulate ones.
		d.Str("bench_schema", harness.BenchSchema)
		d.Int("fuel", spec.Fuel)
		d.Int("chunk", int64(spec.Chunk))
	}
	return d.Key()
}

// flightEntry tracks one in-flight computation: the leader executing it
// and the followers coalesced onto it. Followers are full jobs — own ID,
// own status document, own progress stream — that are never enqueued;
// the leader's terminal transition settles them all.
type flightEntry struct {
	leader    *Job
	followers []*Job
}

// flightDone publishes a terminal leader's outcome: a successful result
// is marshalled once, stored in the artifact cache, and delivered to
// every follower as raw bytes (so follower status documents are
// byte-identical to the leader's, modulo job ID); a failed or cancelled
// leader propagates its JobError. Runs inside the leader's terminal
// transition with leader.mu held — it takes flightMu and then each
// follower's mu, never the leader's again, so the lock order
// (leader.mu → flightMu → follower.mu) is acyclic against Submit's
// (admitMu → flightMu).
func (s *Server) flightDone(key artifact.Key, leader *Job) {
	var data []byte
	if leader.state == StateDone {
		b, err := json.Marshal(leader.result)
		if err == nil {
			data = b
			s.cache.Put(key, b)
		} else {
			leader.log.Error("result not cacheable", "error", err.Error())
		}
	}
	s.flightMu.Lock()
	fe := s.flight[key]
	var followers []*Job
	if fe != nil && fe.leader == leader {
		followers = fe.followers
		delete(s.flight, key)
	}
	s.flightMu.Unlock()
	for _, f := range followers {
		switch {
		case data != nil:
			f.finish(json.RawMessage(data), nil)
		case leader.state == StateDone:
			f.finish(nil, &JobError{Kind: ErrKindInternal, Message: "coalesced result could not be encoded"})
		default:
			// Copy, never share: the follower owns its error document.
			f.finish(nil, &JobError{Kind: leader.jobErr.Kind, Message: leader.jobErr.Message})
		}
	}
}
