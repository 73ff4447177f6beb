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

// ranked reports whether m enumerates in rank order (Fig 3).
func (m Mode) ranked() bool { return m == ModeRanked || m == ModeApproxRanked }

// approximate reports whether m enumerates an (A,τ)-approximate full
// disjunction (Section 6).
func (m Mode) approximate() bool { return m == ModeApprox || m == ModeApproxRanked }

// QueryOptions carries the execution options of a Query. Workers
// travels in the Query's JSON encoding and participates in its
// canonical form (it can change the emission order, which a cached
// result list replays); TaskObserver is a process-local observer that
// does neither.
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
}

// engine renders the options as core.Options: the serving
// configuration plus the task observer.
func (o QueryOptions) engine() core.Options {
	opts := core.Serving()
	opts.TaskObserver = o.TaskObserver
	return opts
}

// rankByName resolves a ranking-function name of a Query: "fmax",
// "pairsum" or "triple".
func rankByName(name string) (rank.Func, error) {
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

// simByName resolves a similarity name of a Query: "levenshtein"
// (the default when empty) or "exact".
func simByName(name string) (approx.Sim, error) {
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
	if q.Mode.approximate() && q.Sim == "" {
		q.Sim = "levenshtein"
	}
	if q.Mode.ranked() {
		// Workers is ignored on the inherently sequential paths; zero it
		// so spellings that cannot differ share one canonical key.
		q.Options.Workers = 0
	}
	// Workers is the only option of the spec: the task observer is
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
	if n.Mode.ranked() {
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
	switch q.Mode {
	case "", ModeExact, ModeRanked, ModeApprox, ModeApproxRanked:
	default:
		return fmt.Errorf("fd: unknown query mode %q", q.Mode)
	}
	if q.Mode.ranked() {
		if _, err := rankByName(q.Rank); err != nil {
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
	if q.Mode.approximate() {
		if !(q.Tau > 0 && q.Tau <= 1) { // also refuses NaN
			return fmt.Errorf("fd: approx threshold %v outside (0,1]", q.Tau)
		}
		if _, err := simByName(q.Sim); err != nil {
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
	if !(q.RankTau >= 0) { // also refuses NaN
		return fmt.Errorf("fd: negative rank threshold %v", q.RankTau)
	}
	if q.Options.Workers < 0 {
		return fmt.Errorf("fd: negative workers %d", q.Options.Workers)
	}
	if q.Follow && !q.maintainable() {
		if q.Mode.ranked() {
			return fmt.Errorf("fd: follow subscription for ranked mode %q (rank order is a property of a finished enumeration)", q.Mode)
		}
		return fmt.Errorf("fd: follow subscription with a result bound (k=%d, rank_tau=%v)", q.K, q.RankTau)
	}
	return nil
}

// maintainable reports whether q's result list can be kept current
// across an append by its family's delta (internal/delta): only an
// unranked, unbounded enumeration can. A rank order is a property of a
// finished enumeration, which a delta cannot splice, and a K or
// RankTau bound makes the list a prefix the delta algebra does not
// describe. It is the one maintainability rule: Validate admits Follow
// exactly under it, and a result cache keeps exactly these lists
// across appends.
func (q Query) maintainable() bool {
	return !q.Mode.ranked() && q.K == 0 && q.RankTau == 0
}

// Family is the join-predicate family a Query enumerates. The zero
// value is the exact family: the full disjunction under join
// consistency and connectivity (JCC). An approximate family carries
// its normalised similarity name and threshold: AFD(R, Amin, τ), whose
// predicate A(T) ≥ τ replaces JCC and changes nothing else (Section 6,
// Figs 5–6). A ranked mode enumerates the same family as its unranked
// twin, in rank order. Family is comparable, so it keys per-family
// state such as one append's delta.
type Family struct {
	// Sim is the similarity name of an approximate family
	// ("levenshtein" or "exact"); empty for the exact family.
	Sim string
	// Tau is the approximate-join threshold, in (0,1]; 0 for the exact
	// family.
	Tau float64
}

// Family returns the predicate family q enumerates.
func (q Query) Family() Family {
	n := q.normalize()
	if !n.Mode.approximate() {
		return Family{}
	}
	return Family{Sim: n.Sim, Tau: n.Tau}
}

// Predicate returns the family's join predicate: core.JCC for the
// exact family, A(T) ≥ τ under Amin over the similarity otherwise. It
// is nil only for a family no valid Query has (an unknown similarity,
// or a threshold outside (0,1]).
func (f Family) Predicate() core.Predicate {
	if f == (Family{}) {
		return core.JCC
	}
	s, err := simByName(f.Sim)
	if err != nil {
		return nil
	}
	p, err := approx.Qualify(&approx.Amin{S: s}, f.Tau)
	if err != nil {
		return nil
	}
	return p
}

// Canonical renders every result-affecting field of the (normalised)
// query in a fixed order. Two valid queries describing the same
// computation produce the same canonical string, so it keys result
// caches together with a database content fingerprint: Workers is
// included because it may change the emission order a cached list
// replays, the mode parameters because they change the result sequence
// itself. The runtime-only TaskObserver and the ignored index fields
// affect neither and are excluded.
func (q Query) Canonical() string {
	n := q.normalize()
	return fmt.Sprintf("fdq4|mode=%s|rank=%s|k=%d|tau=%g|ranktau=%g|sim=%s|wrk=%d",
		n.Mode, n.Rank, n.K, n.Tau, n.RankTau, n.Sim, n.Options.Workers)
}
