package rank

import (
	"container/heap"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/tupleset"
)

// item is one entry of a priority queue.
type item struct {
	set  *tupleset.Set
	rank float64
	pos  int // index within the heap, maintained by heap.Interface
}

// itemHeap is the raw max-heap storage (container/heap plumbing).
type itemHeap []*item

func (h itemHeap) Len() int { return len(h) }
func (h itemHeap) Less(i, j int) bool {
	if h[i].rank != h[j].rank {
		return h[i].rank > h[j].rank // max-heap
	}
	// Deterministic tie-break for reproducible output.
	return h[i].set.Key() < h[j].set.Key()
}
func (h itemHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos = i
	h[j].pos = j
}
func (h *itemHeap) Push(x any) {
	it := x.(*item)
	it.pos = len(*h)
	*h = append(*h, it)
}
func (h *itemHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// priorityQueue is the Incompletei of Fig 3: a max-heap of tuple sets
// ordered by rank, supporting the merge of GETNEXTRESULT lines 14–15
// (which may raise a stored set's rank and re-heapify it) under the
// predicate's merge. It implements core.Pool.
type priorityQueue struct {
	u    *tupleset.Universe
	seed int
	f    Func
	h    itemHeap
	p    core.Predicate
}

var _ core.Pool = (*priorityQueue)(nil)

// Push implements core.Pool (line 18): insert a tuple set with its
// rank.
func (q *priorityQueue) Push(s *tupleset.Set) {
	heap.Push(&q.h, &item{set: s, rank: q.f.Rank(q.u, s)})
}

// Top returns the highest-ranking set without removing it.
func (q *priorityQueue) Top() (*tupleset.Set, float64, bool) {
	if len(q.h) == 0 {
		return nil, 0, false
	}
	return q.h[0].set, q.h[0].rank, true
}

// PopSet removes and returns the highest-ranking set.
func (q *priorityQueue) PopSet() (*tupleset.Set, bool) {
	if len(q.h) == 0 {
		return nil, false
	}
	return heap.Pop(&q.h).(*item).set, true
}

// ReplaceSet swaps the tuple set of an item and re-heapifies.
func (q *priorityQueue) ReplaceSet(it *item, s *tupleset.Set) {
	it.set = s
	it.rank = q.f.Rank(q.u, s)
	heap.Fix(&q.h, it.pos)
}

// TryAbsorb implements core.Pool: lines 14–15 of GETNEXTRESULT. A merge
// can only raise the stored set's rank (f is monotone on connected
// supersets), so the heap is fixed up after the union.
func (q *priorityQueue) TryAbsorb(t *tupleset.Set, anchor relation.Ref, stats *core.Stats) bool {
	for _, it := range q.h {
		member, ok := it.set.Member(q.seed)
		if !ok || member != anchor {
			continue // different seed tuple: the union would be invalid
		}
		stats.ListScans++
		if union, ok := q.p.Merge(q.u, it.set, t, stats); ok {
			q.ReplaceSet(it, union)
			return true
		}
	}
	return false
}
