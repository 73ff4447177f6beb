// Benchmarks, one (or more) per experiment of DESIGN.md's index.
// They regenerate the performance-shaped artifacts of the paper under
// `go test -bench=. -benchmem`; the table-shaped artifacts (E1–E3) run
// as golden tests elsewhere and appear here as micro-benchmarks of the
// same computations.
package fd_test

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	fd "repro"
	"repro/internal/approx"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/join"
	"repro/internal/naive"
	"repro/internal/rank"
	"repro/internal/tupleset"
	"repro/internal/workload"
)

func chainDB(b *testing.B, n, m int) *fd.Database {
	b.Helper()
	db, err := workload.Chain(workload.Config{
		Relations: n, TuplesPerRelation: m, Domain: 4, NullRate: 0.1, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkE1Tourist measures the paper's running example (Tables 1–2).
func BenchmarkE1Tourist(b *testing.B) {
	db := workload.Tourist()
	for i := 0; i < b.N; i++ {
		if _, _, err := drain(db, exactQuery(fd.QueryOptions{})); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2Seed measures a single-seed enumeration (Fig 1, the
// computation traced by Table 3).
func BenchmarkE2Seed(b *testing.B) {
	db := workload.Tourist()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.FDi(db, 0, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3Approx measures the Fig 4 approximate-join evaluation.
func BenchmarkE3Approx(b *testing.B) {
	db, sims := workload.TouristApprox()
	// The Fig 4 similarities are a table, which a Query cannot name, so
	// this runs the engine directly.
	amin := &approx.Amin{S: approx.NewSimTable(sims)}
	for i := 0; i < b.N; i++ {
		if _, _, err := approx.FullDisjunction(db, amin, 0.4, core.Options{UseIndex: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4Total compares total full-disjunction cost: IncrementalFD
// vs the BatchFD stand-in for [3], across database sizes (Cor 4.9).
func BenchmarkE4Total(b *testing.B) {
	for _, m := range []int{8, 16, 32} {
		db := chainDB(b, 4, m)
		b.Run(fmt.Sprintf("incremental/m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := drain(db, exactQuery(fd.QueryOptions{})); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("batch/m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				batch.FullDisjunction(db)
			}
		})
	}
}

// BenchmarkE5TimeToK measures the PINC claim (Thm 4.10): cost of the
// first k answers.
func BenchmarkE5TimeToK(b *testing.B) {
	db := chainDB(b, 5, 24)
	for _, k := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := exactQuery(fd.QueryOptions{})
				q.K = k
				if _, _, err := drain(db, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE6TopK measures ranked retrieval (Thm 5.5) against
// compute-all-then-sort.
func BenchmarkE6TopK(b *testing.B) {
	db, err := workload.Star(workload.Config{
		Relations: 5, TuplesPerRelation: 20, Domain: 4, NullRate: 0.05, ImpMax: 100, Seed: 13})
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{1, 10} {
		b.Run(fmt.Sprintf("ranked/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := drain(db, fd.Query{Mode: fd.ModeRanked, Rank: "fmax", K: k}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("computeAll", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := drain(db, exactQuery(fd.QueryOptions{})); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE7Hardness contrasts brute-force top-1 fsum (NP-hard
// problem, Prop 5.1) with polynomial top-1 fmax as n grows.
func BenchmarkE7Hardness(b *testing.B) {
	for _, n := range []int{3, 5, 7} {
		db, err := workload.Clique(workload.Config{
			Relations: n, TuplesPerRelation: 4, Domain: 2, Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		u := tupleset.NewUniverse(db)
		b.Run(fmt.Sprintf("fsumBrute/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				naive.TopK(db, func(s *tupleset.Set) float64 {
					return (rank.FSum{}).Rank(u, s)
				}, 1)
			}
		})
		b.Run(fmt.Sprintf("fmaxRanked/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := drain(db, fd.Query{Mode: fd.ModeRanked, Rank: "fmax", K: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8Approx sweeps τ for the approximate full disjunction on a
// dirty workload (Thm 6.6).
func BenchmarkE8Approx(b *testing.B) {
	db, err := workload.DirtyChain(workload.DirtyConfig{
		Config:    workload.Config{Relations: 4, TuplesPerRelation: 12, Domain: 4, Seed: 19},
		ErrorRate: 0.35, MaxEdits: 2, MinProb: 0.4,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, tau := range []float64{0.9, 0.6, 0.3} {
		b.Run(fmt.Sprintf("amin/tau=%.1f", tau), func(b *testing.B) {
			q := fd.Query{Mode: fd.ModeApprox, Tau: tau, Sim: "levenshtein",
				Options: fd.QueryOptions{Workers: 1}}
			for i := 0; i < b.N; i++ {
				if _, _, err := drain(db, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE9Ablations measures the §7 engineering options, which
// only the engine exposes (fd.Open runs the joinIndex rung).
func BenchmarkE9Ablations(b *testing.B) {
	db := chainDB(b, 4, 28)
	variants := map[string]core.Options{
		"noIndex":      {},
		"index":        {UseIndex: true},
		"joinIndex":    {UseIndex: true, UseJoinIndex: true},
		"indexSeeded":  {UseIndex: true, Strategy: core.InitSeeded},
		"indexProject": {UseIndex: true, Strategy: core.InitProjected},
	}
	for name, opts := range variants {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.FullDisjunction(db, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE10Outerjoin compares the γ-acyclic outerjoin baseline [2]
// to IncrementalFD on chains.
func BenchmarkE10Outerjoin(b *testing.B) {
	db := chainDB(b, 4, 16)
	b.Run("outerjoin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := join.FullDisjunction(db); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := drain(db, exactQuery(fd.QueryOptions{})); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE11Threshold measures the (τ,f)-threshold variant
// (Remark 5.6).
func BenchmarkE11Threshold(b *testing.B) {
	db, err := workload.Star(workload.Config{
		Relations: 5, TuplesPerRelation: 16, Domain: 4, NullRate: 0.05, ImpMax: 100, Seed: 37})
	if err != nil {
		b.Fatal(err)
	}
	for _, tau := range []float64{95, 50} {
		b.Run(fmt.Sprintf("tau=%.0f", tau), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := drain(db, fd.Query{Mode: fd.ModeRanked, Rank: "fmax", RankTau: tau}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkJoinConsistent micro-benchmarks the pairwise
// join-consistency predicate — the innermost operation of every
// algorithm in the paper — on a clique workload where every relation
// pair shares an attribute, so each call walks a shared-position list.
// After the dictionary-encoding refactor this is pure int32 compares
// over columnar slices; track it to keep the hot path honest across
// PRs.
func BenchmarkJoinConsistent(b *testing.B) {
	db, err := workload.Clique(workload.Config{
		Relations: 6, TuplesPerRelation: 32, Domain: 4, NullRate: 0.1, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	var refs []fd.Ref
	db.ForEachRef(func(ref fd.Ref) bool {
		refs = append(refs, ref)
		return true
	})
	db.JoinConsistent(refs[0], refs[len(refs)-1]) // encode outside the loop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := refs[i%len(refs)]
		c := refs[(i*7+1)%len(refs)]
		db.JoinConsistent(a, c)
	}
}

// BenchmarkUnionJCC micro-benchmarks the set-level union predicate of
// GETNEXTRESULT lines 14–15 on clique results, the companion of
// BenchmarkJoinConsistent at the tuple-set layer.
func BenchmarkUnionJCC(b *testing.B) {
	db, err := workload.Clique(workload.Config{
		Relations: 5, TuplesPerRelation: 8, Domain: 3, NullRate: 0.1, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	u := tupleset.NewUniverse(db)
	sets, _, err := core.FullDisjunction(db, core.Options{UseIndex: true})
	if err != nil {
		b.Fatal(err)
	}
	if len(sets) < 2 {
		b.Fatal("clique workload produced fewer than 2 results")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.UnionJCC(sets[i%len(sets)], sets[(i*13+1)%len(sets)])
	}
}

// BenchmarkJCCWithTuple compares the two implementations of the
// innermost GETNEXTRESULT predicate (line 3 of Fig 2): the
// attribute-binding signature probe (O(arity) code compares) against
// the retained pairwise walk (O(|T|·sharedAttrs) JoinConsistent
// calls). The clique workload makes every relation pair share an
// attribute, so the pairwise walk has real work to do — the regime the
// asymptotic gap describes.
func BenchmarkJCCWithTuple(b *testing.B) {
	db, err := workload.Clique(workload.Config{
		Relations: 8, TuplesPerRelation: 12, Domain: 4, NullRate: 0.1, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	u := tupleset.NewUniverse(db)
	sets, _, err := core.FullDisjunction(db, core.Options{UseIndex: true})
	if err != nil {
		b.Fatal(err)
	}
	big := sets[0]
	for _, s := range sets {
		if s.Len() > big.Len() {
			big = s
		}
	}
	if big.Len() > 1 {
		// Free one relation so candidate tuples exercise the full
		// consistency walk instead of the same-relation early exit.
		big = big.Clone()
		big.Remove(int(big.Refs()[big.Len()-1].Rel))
	}
	// Only tuples of relations absent from the set reach the
	// consistency walk; everything else exits identically in both
	// implementations and would dilute the comparison.
	var refs []fd.Ref
	db.ForEachRef(func(ref fd.Ref) bool {
		if !big.HasRelation(int(ref.Rel)) {
			refs = append(refs, ref)
		}
		return true
	})
	b.Run("signature", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			u.JCCWithTuple(big, refs[i%len(refs)])
		}
	})
	b.Run("pairwise", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ref := refs[i%len(refs)]
			_ = u.ConnectedWith(big, ref) && u.OracleConsistentWith(big, ref)
		}
	})
}

// BenchmarkMaximalSubset compares the two implementations of footnote 3
// on maximal chain results: the signature path (binding probe, pooled
// bitset scratch, recycled destination set) against the retained
// boolean-mask oracle.
func BenchmarkMaximalSubset(b *testing.B) {
	db := chainDB(b, 5, 24)
	u := tupleset.NewUniverse(db)
	sets, _, err := core.FullDisjunction(db, core.Options{UseIndex: true})
	if err != nil {
		b.Fatal(err)
	}
	big := sets[0]
	for _, s := range sets {
		if s.Len() > big.Len() {
			big = s
		}
	}
	var refs []fd.Ref
	db.ForEachRef(func(ref fd.Ref) bool {
		refs = append(refs, ref)
		return true
	})
	b.Run("signature", func(b *testing.B) {
		var ctr tupleset.SigCounters
		dst := u.NewSet()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			u.MaximalSubsetInto(dst, big, refs[i%len(refs)], &ctr)
		}
	})
	b.Run("pairwise", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			u.OracleMaximalSubsetWith(big, refs[i%len(refs)])
		}
	})
}

// BenchmarkSubstrates micro-benchmarks the hot predicates.
func BenchmarkSubstrates(b *testing.B) {
	db := chainDB(b, 5, 24)
	u := tupleset.NewUniverse(db)
	sets, _, err := core.FullDisjunction(db, core.Options{UseIndex: true})
	if err != nil {
		b.Fatal(err)
	}
	big := sets[0]
	for _, s := range sets {
		if s.Len() > big.Len() {
			big = s
		}
	}
	b.Run("JCC", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			u.JCC(big)
		}
	})
	b.Run("UnionJCC", func(b *testing.B) {
		other := sets[len(sets)/2]
		for i := 0; i < b.N; i++ {
			u.UnionJCC(big, other)
		}
	})
	b.Run("MaximalSubsetWith", func(b *testing.B) {
		tb := fd.Ref{Rel: int32(db.NumRelations() - 1), Idx: 0}
		for i := 0; i < b.N; i++ {
			u.MaximalSubsetWith(big, tb)
		}
	})
	b.Run("Key", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = big.Key()
		}
	})
}

// BenchmarkObsOverhead quantifies the cost of this PR's observability
// seams on the library hot path. The "off" case is the default one —
// no trace, no task observer — where every instrumented site reduces
// to a nil check (obs's contract), so its numbers should match the
// pre-instrumentation baseline within noise. The "observed" case
// attaches a task observer (the fdserve configuration) for the
// comparison number.
func BenchmarkObsOverhead(b *testing.B) {
	db := chainDB(b, 4, 24)
	drain := func(b *testing.B, q fd.Query) {
		rs, err := fd.Open(context.Background(), db, q)
		if err != nil {
			b.Fatal(err)
		}
		defer rs.Close()
		for {
			if _, ok := rs.Next(); !ok {
				break
			}
		}
		if err := rs.Err(); err != nil {
			b.Fatal(err)
		}
	}
	for _, workers := range []int{1, 4} {
		base := fd.Query{Mode: fd.ModeExact,
			Options: fd.QueryOptions{Workers: workers}}
		b.Run(fmt.Sprintf("off/workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				drain(b, base)
			}
		})
		b.Run(fmt.Sprintf("observed/workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var spans atomic.Int64
			q := base
			q.Options.TaskObserver = func(fd.TaskSpan) { spans.Add(1) }
			for i := 0; i < b.N; i++ {
				drain(b, q)
			}
			_ = spans.Load()
		})
		// The introspected case attaches the full live-progress surface
		// (delay tracker + progress counters, the fdserve session
		// configuration): a few atomics and one clock read per result.
		b.Run(fmt.Sprintf("introspected/workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := base
				q.Options.Delay = fd.NewDelay(0)
				q.Options.Progress = &fd.Progress{}
				drain(b, q)
			}
		})
	}
}
