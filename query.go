package fd

import (
	"fmt"
	"runtime"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/rank"
)

// Mode selects the evaluation family of a Query, mapping onto the
// paper's four problems: FD(R), top-(k,f)/(τ,f)-threshold,
// (A,τ)-approximate, and the ranked approximate adaptation sketched at
// the end of Section 6.
type Mode string

// Query modes. The zero value is normalised to ModeExact.
const (
	// ModeExact enumerates FD(R) (INCREMENTALFD).
	ModeExact Mode = "exact"
	// ModeRanked enumerates FD(R) in non-increasing rank order under a
	// named ranking function (PRIORITYINCREMENTALFD); combine with K or
	// RankTau for the top-(k,f) and (τ,f)-threshold problems.
	ModeRanked Mode = "ranked"
	// ModeApprox enumerates AFD(R, Amin, τ) under a named similarity
	// (APPROXINCREMENTALFD).
	ModeApprox Mode = "approx"
	// ModeApproxRanked enumerates AFD(R, Amin, τ) in non-increasing
	// rank order — Sections 5 and 6 combined.
	ModeApproxRanked Mode = "approx-ranked"
)

// QueryOptions carries the execution options of a Query. Workers
// travels in the Query's JSON encoding and participates in its
// canonical form (it can change the emission order, which a cached
// result list replays); TaskObserver, Delay and Progress are
// process-local observers that do neither.
//
// There is no engine configuration to choose: Open always runs with
// the §7 hash index over the Complete and Incomplete lists and the
// join candidate index over the database, the fastest configuration
// fdbench E9 measures. The other §7 configurations remain engine
// options (internal/core.Options) for the experiments.
type QueryOptions struct {
	// Deprecated: ignored; both indexes are always on.
	UseIndex bool `json:"-"`
	// Deprecated: ignored; both indexes are always on.
	UseJoinIndex bool `json:"-"`
	// Workers bounds the intra-query parallelism of the streaming
	// executor: 0 (the default) selects GOMAXPROCS, 1 forces the
	// sequential path, higher values run that many enumeration workers.
	// Only the exact and approx modes use it; the ranked modes are
	// inherently serial (the Fig 3 priority-queue order), so there
	// Workers is ignored and normalised away.
	Workers int `json:"workers,omitempty"`
	// TaskObserver, when non-nil, receives a TaskSpan each time a
	// parallel enumeration task finishes — the observability hook the
	// service layer uses to attach per-task spans to a query trace.
	// Runtime-only: never serialised, never keyed.
	TaskObserver TaskObserver `json:"-"`
	// Delay, when non-nil, receives the gap between consecutive results
	// of the opened cursor — the measured form of the paper's
	// polynomial-delay guarantee. Runtime-only like TaskObserver; it
	// observes whichever path runs.
	Delay *Delay `json:"-"`
	// Progress, when non-nil, is kept current with the enumeration's
	// live counters (phase, task completion, tuples scanned, results
	// emitted); any goroutine may snapshot it mid-flight. Runtime-only
	// like Delay.
	Progress *Progress `json:"-"`
}

// engine renders the options as core.Options: both indexes on, plus
// the task observer.
func (o QueryOptions) engine() core.Options {
	return core.Options{UseIndex: true, UseJoinIndex: true, TaskObserver: o.TaskObserver}
}

// RankByName resolves a ranking-function name of a Query: "fmax",
// "pairsum" or "triple".
func RankByName(name string) (RankFunc, error) {
	switch name {
	case "fmax":
		return rank.FMax{}, nil
	case "pairsum":
		return rank.PairSum(), nil
	case "triple":
		return rank.PaperTriple(), nil
	default:
		return nil, fmt.Errorf("fd: unknown ranking function %q (fmax, pairsum, triple)", name)
	}
}

// SimByName resolves a similarity name of a Query: "levenshtein"
// (the default when empty) or "exact".
func SimByName(name string) (Sim, error) {
	switch name {
	case "", "levenshtein":
		return approx.LevenshteinSim{}, nil
	case "exact":
		return approx.ExactSim{}, nil
	default:
		return nil, fmt.Errorf("fd: unknown similarity %q (levenshtein, exact)", name)
	}
}

// Query is the declarative specification of one full-disjunction
// computation — the single spec every front end (library, service,
// HTTP, CLI) parses, validates, caches and executes identically. The
// zero Query is a valid exact full enumeration. A Query round-trips
// through JSON (the fdserve wire format embeds it verbatim), and its
// Canonical form keys result caches.
type Query struct {
	// Mode selects the evaluation family; empty means exact.
	Mode Mode `json:"mode,omitempty"`
	// Rank names the ranking function of the ranked modes: fmax,
	// pairsum or triple.
	Rank string `json:"rank,omitempty"`
	// K, when positive, stops the enumeration after K results — the
	// top-(k,f) problem in ranked modes, a first-k prefix otherwise.
	K int `json:"k,omitempty"`
	// Tau is the approximate-join threshold of the approx modes, in
	// (0,1].
	Tau float64 `json:"tau,omitempty"`
	// RankTau, when positive, stops a ranked enumeration at the first
	// result ranking below it — the (τ,f)-threshold problem.
	RankTau float64 `json:"rank_tau,omitempty"`
	// Sim names the similarity of the approx modes: levenshtein
	// (default) or exact.
	Sim string `json:"sim,omitempty"`
	// Follow subscribes the session to incremental maintenance: after
	// the base enumeration drains, the session stays open and receives
	// the delta results of every append to its database
	// (internal/delta) until it is closed. Only the unbounded exact and
	// approx modes can be followed — a ranked order or a K/RankTau
	// bound is a property of a finished enumeration, not of a live one.
	// Follow does not change the computed result set, so it is excluded
	// from the canonical form: a follow query shares its cache entry
	// with the one-shot spelling.
	Follow bool `json:"follow,omitempty"`
	// Options carries the execution options.
	Options QueryOptions `json:"options,omitzero"`
}

// normalize resolves defaults (mode, similarity) so that queries
// meaning the same computation compare equal in Canonical.
func (q Query) normalize() Query {
	if q.Mode == "" {
		q.Mode = ModeExact
	}
	if (q.Mode == ModeApprox || q.Mode == ModeApproxRanked) && q.Sim == "" {
		q.Sim = "levenshtein"
	}
	if q.Mode == ModeRanked || q.Mode == ModeApproxRanked {
		// Workers is ignored on the inherently sequential paths; zero it
		// so spellings that cannot differ share one canonical key.
		q.Options.Workers = 0
	}
	// Workers is the only option of the spec: the observers are
	// runtime-only and the index fields ignored.
	q.Options = QueryOptions{Workers: q.Options.Workers}
	return q
}

// ParallelWorkers reports the worker count Open would actually run q
// with: 1 on the sequential paths (the ranked modes), otherwise the
// requested Workers with 0 resolved to GOMAXPROCS. Admission layers
// (internal/service) use it to budget intra-query parallelism before
// opening the cursor.
func (q Query) ParallelWorkers() int {
	n := q.normalize()
	switch n.Mode {
	case ModeRanked, ModeApproxRanked:
		return 1
	}
	w := n.Options.Workers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Validate rejects malformed queries before any session or cursor
// exists: unknown modes, names that do not resolve, thresholds outside
// their domain, parameters that their mode would silently ignore.
func (q Query) Validate() error {
	ranked, approxMode := false, false
	switch q.Mode {
	case "", ModeExact:
	case ModeRanked:
		ranked = true
	case ModeApprox:
		approxMode = true
	case ModeApproxRanked:
		ranked, approxMode = true, true
	default:
		return fmt.Errorf("fd: unknown query mode %q", q.Mode)
	}
	if ranked {
		if _, err := RankByName(q.Rank); err != nil {
			return err
		}
	} else {
		if q.Rank != "" {
			return fmt.Errorf("fd: rank function %q given for non-ranked mode %q", q.Rank, q.Mode)
		}
		if q.RankTau != 0 {
			return fmt.Errorf("fd: rank threshold %v given for non-ranked mode %q", q.RankTau, q.Mode)
		}
	}
	if approxMode {
		if q.Tau <= 0 || q.Tau > 1 {
			return fmt.Errorf("fd: approx threshold %v outside (0,1]", q.Tau)
		}
		if _, err := SimByName(q.Sim); err != nil {
			return err
		}
	} else {
		if q.Tau != 0 {
			return fmt.Errorf("fd: approx threshold %v given for non-approx mode %q", q.Tau, q.Mode)
		}
		if q.Sim != "" {
			return fmt.Errorf("fd: similarity %q given for non-approx mode %q", q.Sim, q.Mode)
		}
	}
	if q.K < 0 {
		return fmt.Errorf("fd: negative k %d", q.K)
	}
	if q.RankTau < 0 {
		return fmt.Errorf("fd: negative rank threshold %v", q.RankTau)
	}
	if q.Options.Workers < 0 {
		return fmt.Errorf("fd: negative workers %d", q.Options.Workers)
	}
	if q.Follow {
		if ranked {
			return fmt.Errorf("fd: follow subscription for ranked mode %q (rank order is a property of a finished enumeration)", q.Mode)
		}
		if q.K != 0 || q.RankTau != 0 {
			return fmt.Errorf("fd: follow subscription with a result bound (k=%d, rank_tau=%v)", q.K, q.RankTau)
		}
	}
	return nil
}

// Canonical renders every result-affecting field of the (normalised)
// query in a fixed order. Two valid queries describing the same
// computation produce the same canonical string, so it keys result
// caches together with a database content fingerprint: Workers is
// included because it may change the emission order a cached list
// replays, the mode parameters because they change the result sequence
// itself. Runtime-only options (TaskObserver, Delay, Progress) and the
// ignored index fields affect neither and are excluded.
func (q Query) Canonical() string {
	n := q.normalize()
	return fmt.Sprintf("fdq4|mode=%s|rank=%s|k=%d|tau=%g|ranktau=%g|sim=%s|wrk=%d",
		n.Mode, n.Rank, n.K, n.Tau, n.RankTau, n.Sim, n.Options.Workers)
}
