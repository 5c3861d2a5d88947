package pipeline

// The specialized chunk walker: the per-chunk replay loop over hoisted
// trace columns. Both RunChunk and RunChunkBatch route through
// runChunkCols, so sequential, streamed, and batched replays share one
// engine. Specialization lives below it: the per-PC speculation-path byte
// resolved into the decode cache (speculateFast) and the fused
// direct-mapped cache leaf (timedCache.fast). SetNoSpecialize falls back to
// the generic speculate dispatch and the full cache access; outputs are
// byte-identical either way.

import "elag/internal/emu"

// refreshFastPaths re-derives the per-chunk fast-path eligibility flags.
// It runs at chunk boundaries only, so observers attached or detached
// between runs are honored without any per-instruction cost.
func (s *Sim) refreshFastPaths() {
	_, _, _, icAssoc := s.ic.c.Geometry()
	_, _, _, dcAssoc := s.dc.c.Geometry()
	s.ic.fast = !s.noSpec && icAssoc == 1 && s.ic.c.Observer == nil
	s.dc.fast = !s.noSpec && dcAssoc == 1 && s.dc.c.Observer == nil
}

// SetNoSpecialize disables (true) or re-enables (false) the
// config-specialized kernels: the per-PC speculation-path dispatch and the
// fused direct-mapped cache access. Results are byte-identical either way.
func (s *Sim) SetNoSpecialize(v bool) {
	s.noSpec = v
	for i := range s.meta {
		md := &s.meta[i]
		if md.flags&mfLoad == 0 {
			continue
		}
		if v {
			md.spath = spGeneric
		} else {
			md.spath = resolveSPath(&s.cfg, md.flavor)
		}
	}
}

// runChunkCols is the shared chunk walker over hoisted trace columns.
func (s *Sim) runChunkCols(pcs, nextPCs []int32, eas, baseVals []int64, takens []bool, seq0 int64) error {
	s.refreshFastPaths()
	var te emu.TraceEntry
	for i := range pcs {
		te.PC = int(pcs[i])
		te.SeqNum = seq0 + int64(i)
		te.EA = eas[i]
		te.BaseVal = baseVals[i]
		te.Taken = takens[i]
		te.NextPC = int(nextPCs[i])
		if err := s.StepInst(&te); err != nil {
			return err
		}
	}
	return nil
}
