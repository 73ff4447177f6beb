// Package rank implements Section 5 of Cohen & Sagiv 2007: ranking
// functions over tuple sets, the monotonically c-determined class, and
// PRIORITYINCREMENTALFD (Fig 3), which returns the answers of a full
// disjunction in ranking order. A prefix of k results solves the
// top-(k,f) full-disjunction problem in polynomial time in the input
// and k (Theorem 5.5), and stopping at the first result below τ the
// (τ,f)-threshold variant of Remark 5.6; fd.Open enforces both bounds.
package rank

import (
	"fmt"

	"repro/internal/relation"
	"repro/internal/tupleset"
)

// Func is a ranking function f over tuple sets. Every tuple carries an
// importance imp(t) (relation.Tuple.Imp); f combines the importances of
// a set's members into a single score.
type Func interface {
	// Name identifies the function in reports.
	Name() string
	// Rank computes f(T). It must run in polynomial time in |T|.
	Rank(u *tupleset.Universe, t *tupleset.Set) float64
	// C returns the determinacy bound c when f is monotonically
	// c-determined, or 0 when it is not (such functions cannot be used
	// with PriorityIncrementalFD; top-(1, fsum) is already NP-hard,
	// Proposition 5.1).
	C() int
}

// FMax is the paper's fmax: the maximum importance of any member.
// It is monotonically 1-determined.
type FMax struct{}

// Name implements Func.
func (FMax) Name() string { return "fmax" }

// C implements Func: fmax is 1-determined.
func (FMax) C() int { return 1 }

// Rank implements Func.
func (FMax) Rank(u *tupleset.Universe, t *tupleset.Set) float64 {
	best := 0.0
	for _, ref := range t.Refs() {
		if imp := u.DB.Imp(ref); imp > best {
			best = imp
		}
	}
	return best
}

// FSum is the paper's fsum: the sum of member importances. It is NOT
// c-determined for any constant c; Proposition 5.1 proves top-(1,fsum)
// NP-hard. It exists for the brute-force comparisons of experiment E7.
type FSum struct{}

// Name implements Func.
func (FSum) Name() string { return "fsum" }

// C implements Func: fsum is not c-determined.
func (FSum) C() int { return 0 }

// Rank implements Func.
func (FSum) Rank(u *tupleset.Universe, t *tupleset.Set) float64 {
	sum := 0.0
	for _, ref := range t.Refs() {
		sum += u.DB.Imp(ref)
	}
	return sum
}

// MaxOverConnected is the general monotonically c-determined family the
// paper sketches: f(T) = max over connected subsets S ⊆ T with |S| ≤ c
// of Score(S). With non-negative monotone Score this is monotonically
// c-determined: the maximising subset witnesses c-determinacy, and
// growing T can only add candidate subsets.
//
// The paper's 3-determined example max{imp(t1) + imp(t2)·imp(t3)} is
// expressible with c=3 and an appropriate Score.
type MaxOverConnected struct {
	// CBound is c.
	CBound int
	// Label names the instance.
	Label string
	// Score evaluates one connected subset of size ≤ c. It must be
	// order-insensitive over the subset's members.
	Score func(u *tupleset.Universe, members []relation.Ref) float64
}

// Name implements Func.
func (m *MaxOverConnected) Name() string { return m.Label }

// C implements Func.
func (m *MaxOverConnected) C() int { return m.CBound }

// Rank implements Func: the maximum of Score over connected subsets of
// size at most c, computed by DFS extension (a result holds at most n
// tuples, so this is O(n^c) subset evaluations).
func (m *MaxOverConnected) Rank(u *tupleset.Universe, t *tupleset.Set) float64 {
	refs := t.Refs()
	best := 0.0
	first := true
	var rec func(chosen []relation.Ref, start int)
	rec = func(chosen []relation.Ref, start int) {
		if len(chosen) > 0 {
			if connectedRefs(u, chosen) {
				s := m.Score(u, chosen)
				if first || s > best {
					best = s
					first = false
				}
			}
		}
		if len(chosen) == m.CBound {
			return
		}
		for i := start; i < len(refs); i++ {
			rec(append(chosen, refs[i]), i+1)
		}
	}
	rec(nil, 0)
	return best
}

func connectedRefs(u *tupleset.Universe, refs []relation.Ref) bool {
	if len(refs) == 1 {
		return true
	}
	mask := make([]uint64, u.Conn.Words())
	for _, r := range refs {
		mask[r.Rel/64] |= 1 << (uint(r.Rel) % 64)
	}
	return u.Conn.SubsetConnectedBits(mask, nil)
}

// PairSum is a ready-made monotonically 2-determined instance:
// f(T) = max over connected pairs (and singletons) of the sum of
// importances.
func PairSum() *MaxOverConnected {
	return &MaxOverConnected{
		CBound: 2,
		Label:  "fpairsum",
		Score: func(u *tupleset.Universe, members []relation.Ref) float64 {
			sum := 0.0
			for _, r := range members {
				sum += u.DB.Imp(r)
			}
			return sum
		},
	}
}

// PaperTriple is the paper's 3-determined example:
// f(T) = max{imp(t1) + imp(t2)·imp(t3) | {t1,t2,t3} ⊆ T connected}.
// Subsets of size 1 and 2 score with missing factors treated as the
// best completion available, degenerating to imp sums; the function
// remains monotone because scores never decrease when tuples are
// added.
func PaperTriple() *MaxOverConnected {
	return &MaxOverConnected{
		CBound: 3,
		Label:  "ftriple",
		Score: func(u *tupleset.Universe, members []relation.Ref) float64 {
			imps := make([]float64, len(members))
			for i, r := range members {
				imps[i] = u.DB.Imp(r)
			}
			switch len(imps) {
			case 1:
				return imps[0]
			case 2:
				a, b := imps[0], imps[1]
				if b > a {
					a, b = b, a
				}
				return a + b // t3 missing: product term degenerates
			default:
				// Best assignment of the three members to the roles
				// t1 + t2*t3.
				best := 0.0
				for i := 0; i < 3; i++ {
					j, k := (i+1)%3, (i+2)%3
					if v := imps[i] + imps[j]*imps[k]; v > best {
						best = v
					}
				}
				return best
			}
		},
	}
}

// Validate checks that f can drive PriorityIncrementalFD.
func Validate(f Func) error {
	if f == nil {
		return fmt.Errorf("rank: nil ranking function")
	}
	if f.C() < 1 {
		return fmt.Errorf("rank: %s is not monotonically c-determined; "+
			"ranked enumeration is intractable for it (cf. Proposition 5.1)", f.Name())
	}
	return nil
}
