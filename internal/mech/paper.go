// paper.go registers the paper's two mechanisms — the addrpred prediction
// table and the earlycalc addressing-register cache — as spec-only registry
// rows: a description and a validator, no factory. The pipeline drives both
// through their concrete types on the replay hot path (pipeline.New turns
// their specs into the typed component configs; the interface indirection
// is reserved for assist mechanisms), so the rows exist to give the paper
// mechanisms the shared spec vocabulary and Describe entries.
package mech

import (
	"fmt"

	"elag/internal/addrpred"
	"elag/internal/earlycalc"
)

func init() {
	Register("addrpred",
		"PC-indexed stride address-prediction table (paper Fig. 3; ld_p)",
		nil, validateAddrpred)
	Register("earlycalc",
		"compiler-directed addressing-register cache R_addr (ld_e)",
		nil, validateEarlycalc)
}

// PredictorConfig maps a spec of kind "addrpred" to the concrete table
// configuration the pipeline's dedicated ld_p path consumes.
func PredictorConfig(s Spec) addrpred.Config {
	return addrpred.Config{Entries: s.Entries, Assoc: s.Assoc}
}

// RegCacheConfig maps a spec of kind "earlycalc" to the concrete register
// cache configuration the pipeline's dedicated ld_e path consumes.
func RegCacheConfig(s Spec) earlycalc.Config {
	return earlycalc.Config{Entries: s.Entries}
}

func validateAddrpred(s Spec) error {
	return PredictorConfig(s).Validate()
}

func validateEarlycalc(s Spec) error {
	if s.Assoc != 0 && s.Assoc != s.Entries {
		return fmt.Errorf("earlycalc: the register cache is fully associative (assoc %d with %d entries)", s.Assoc, s.Entries)
	}
	return RegCacheConfig(s).Validate()
}
