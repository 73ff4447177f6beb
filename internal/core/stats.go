package core

import (
	"fmt"

	"repro/internal/tupleset"
)

// Stats collects instrumentation counters for one execution. The
// complexity-shape experiments (E4, E5, E9) read these counters instead
// of relying purely on wall-clock time.
type Stats struct {
	// Iterations counts calls to GetNextResult (the while loop of
	// Fig 1, line 5). By Corollary 4.7 one enumeration of FDi(R) runs
	// one per result; a suffix pass also counts the results it drops
	// because a tuple of an earlier relation extends them.
	Iterations int
	// Emitted counts tuple sets returned to the caller.
	Emitted int
	// JCCChecks counts join-consistency predicate evaluations
	// (JCCWithTuple, UnionJCC and consistency walks).
	JCCChecks int64
	// TuplesScanned counts tuples visited by the database scans of
	// GETNEXTRESULT lines 2 and 7.
	TuplesScanned int64
	// ListScans counts tuple sets examined while searching Complete and
	// Incomplete (lines 11 and 14). The §7 hash index exists to shrink
	// this counter.
	ListScans int64
	// PageReads counts simulated block fetches performed by the
	// database scans; block-based execution (§7) reduces it by the
	// block-size factor.
	PageReads int64
	// IndexProbes counts posting lookups of the join candidate index
	// (Options.UseJoinIndex), one per member and adjacent relation.
	IndexProbes int64
	// TuplesSkipped counts tuples a full sweep would have visited that
	// the candidate-only iteration avoided; TuplesScanned + the skip
	// count of one scan equals the sweep's scope, so the pair makes the
	// saving of the join index directly observable.
	TuplesSkipped int64
	// SigHits counts predicate evaluations answered by the attribute-
	// binding signature fast path (O(arity) code compares and bitmask
	// words instead of pairwise tuple walks).
	SigHits int64
	// SigRebuilds counts lazy signature rebuilds of stale tuple sets
	// (a set goes stale when a member is removed or replaced).
	SigRebuilds int64
	// MaxResident tracks the peak number of tuple sets simultaneously
	// held in Complete and Incomplete (Corollary 4.7 bounds it by the
	// number of result tuple sets).
	MaxResident int
}

// Work is the engine work measure of the delay guarantee: JCC checks,
// list scans and scanned tuples, the three counters every step of
// GETNEXTRESULT advances. The largest Work between consecutive results
// is a drain's delay in work units (core.delay_work_max).
func (s Stats) Work() int64 { return s.JCCChecks + s.ListScans + s.TuplesScanned }

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Iterations += other.Iterations
	s.Emitted += other.Emitted
	s.JCCChecks += other.JCCChecks
	s.TuplesScanned += other.TuplesScanned
	s.ListScans += other.ListScans
	s.PageReads += other.PageReads
	s.IndexProbes += other.IndexProbes
	s.TuplesSkipped += other.TuplesSkipped
	s.SigHits += other.SigHits
	s.SigRebuilds += other.SigRebuilds
	if other.MaxResident > s.MaxResident {
		s.MaxResident = other.MaxResident
	}
}

// Sub returns the counter deltas s − prev for the additive fields —
// the per-span attribution of work done between two Stats snapshots of
// one cursor. MaxResident is a high-water mark, not additive: the
// difference keeps s's value (the peak as of the later snapshot).
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Iterations:    s.Iterations - prev.Iterations,
		Emitted:       s.Emitted - prev.Emitted,
		JCCChecks:     s.JCCChecks - prev.JCCChecks,
		TuplesScanned: s.TuplesScanned - prev.TuplesScanned,
		ListScans:     s.ListScans - prev.ListScans,
		PageReads:     s.PageReads - prev.PageReads,
		IndexProbes:   s.IndexProbes - prev.IndexProbes,
		TuplesSkipped: s.TuplesSkipped - prev.TuplesSkipped,
		SigHits:       s.SigHits - prev.SigHits,
		SigRebuilds:   s.SigRebuilds - prev.SigRebuilds,
		MaxResident:   s.MaxResident,
	}
}

// Map renders the counters by name — the span-stats form the
// observability layer records (trace spans carry map[string]int64, so
// internal/obs stays dependency-free). Zero counters are omitted to
// keep serialised traces small; summing the maps of telescoping Sub
// deltas therefore still reproduces every non-zero final counter,
// except max_resident, which is a high-water mark and not additive.
func (s Stats) Map() map[string]int64 {
	m := make(map[string]int64, 11)
	put := func(k string, v int64) {
		if v != 0 {
			m[k] = v
		}
	}
	put("iterations", int64(s.Iterations))
	put("emitted", int64(s.Emitted))
	put("jcc_checks", s.JCCChecks)
	put("tuples_scanned", s.TuplesScanned)
	put("list_scans", s.ListScans)
	put("page_reads", s.PageReads)
	put("index_probes", s.IndexProbes)
	put("tuples_skipped", s.TuplesSkipped)
	put("sig_hits", s.SigHits)
	put("sig_rebuilds", s.SigRebuilds)
	put("max_resident", int64(s.MaxResident))
	return m
}

// AddSig folds a tupleset signature counter block into s. Callers that
// pass a local counter block to the tupleset tests flush it here.
func (s *Stats) AddSig(c *tupleset.SigCounters) {
	s.SigHits += c.Hits
	s.SigRebuilds += c.Rebuilds
}

// String renders the counters compactly.
func (s Stats) String() string {
	return fmt.Sprintf("iters=%d emitted=%d jcc=%d sigHits=%d sigRebuilds=%d scanned=%d skipped=%d probes=%d listScans=%d pageReads=%d maxResident=%d",
		s.Iterations, s.Emitted, s.JCCChecks, s.SigHits, s.SigRebuilds, s.TuplesScanned, s.TuplesSkipped, s.IndexProbes,
		s.ListScans, s.PageReads, s.MaxResident)
}
