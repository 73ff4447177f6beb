package service

import (
	"sync"

	fd "repro"
	"repro/internal/delta"
	"repro/internal/tupleset"
)

// FollowBatch is one append's delta as delivered to a follow
// subscription: the family's delta (the new maximal result sets the
// batch created, Delta.Added), plus the rendering universe of the
// extended database (U.DB) those sets are bound to — the subscriber's
// base session still holds the pre-append database, whose universe
// cannot render sets that reference appended tuples.
//
// Retraction is implicit: an earlier result is no longer maximal when
// Delta.Subsumes it. The check is universe-independent, so subscribers
// test results from any earlier database version directly.
type FollowBatch struct {
	Delta *delta.Delta
	U     *tupleset.Universe
}

// subscription is one live follow attachment of a query session: a
// queue of delta batches pushed by AppendRows and drained by the
// session's front end, with a level-triggered signal channel. A batch
// is pushed per append even when its delta is empty, so subscribers
// observe every append landing.
type subscription struct {
	id  string
	fam fd.Family

	mu     sync.Mutex
	queue  []FollowBatch
	closed bool
	// ch carries the level-triggered "queue changed or closed" signal;
	// capacity 1, so pushes never block on a slow subscriber.
	ch chan struct{}
}

func newSubscription(id string, fam fd.Family) *subscription {
	return &subscription{id: id, fam: fam, ch: make(chan struct{}, 1)}
}

func (sub *subscription) signal() {
	select {
	case sub.ch <- struct{}{}:
	default:
	}
}

// push enqueues one delta batch; no-op after close.
func (sub *subscription) push(b FollowBatch) {
	sub.mu.Lock()
	if sub.closed {
		sub.mu.Unlock()
		return
	}
	sub.queue = append(sub.queue, b)
	sub.mu.Unlock()
	sub.signal()
}

// close marks the subscription dead and wakes any waiter; batches
// already queued stay drainable.
func (sub *subscription) close() {
	sub.mu.Lock()
	sub.closed = true
	sub.mu.Unlock()
	sub.signal()
}

// drain removes and returns every queued batch, and reports whether
// the subscription has been closed.
func (sub *subscription) drain() ([]FollowBatch, bool) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	q := sub.queue
	sub.queue = nil
	return q, sub.closed
}

// IsFollow reports whether the session carries a live-maintenance
// subscription (the spec asked for Follow).
func (q *Query) IsFollow() bool { return q.sub != nil }

// FollowSignal returns the channel signalled whenever delta batches
// arrive or the subscription closes; nil for non-follow sessions. The
// signal is level-triggered with capacity one: after a receive, drain
// with FollowBatches until empty.
func (q *Query) FollowSignal() <-chan struct{} {
	if q.sub == nil {
		return nil
	}
	return q.sub.ch
}

// FollowBatches drains the delta batches queued since the last call,
// and reports whether the subscription is over (session closed, its
// database dropped, or the service shut down). Never blocks.
func (q *Query) FollowBatches() ([]FollowBatch, bool) {
	if q.sub == nil {
		return nil, true
	}
	return q.sub.drain()
}

// registerFollowLocked attaches a follow subscription for q; callers
// hold s.mu and have validated the spec, so it is maintainable
// (fd.Query.Validate admits Follow on no other).
func (s *Service) registerFollowLocked(q *Query) {
	q.sub = newSubscription(q.id, q.spec.Family())
	if s.subs == nil {
		s.subs = make(map[string]map[string]*subscription)
	}
	if s.subs[q.dbName] == nil {
		s.subs[q.dbName] = make(map[string]*subscription)
	}
	s.subs[q.dbName][q.id] = q.sub
}

// dropFollow detaches and closes q's subscription, if any; idempotent.
func (s *Service) dropFollow(q *Query) {
	if q.sub == nil {
		return
	}
	s.mu.Lock()
	if m := s.subs[q.dbName]; m != nil {
		delete(m, q.id)
		if len(m) == 0 {
			delete(s.subs, q.dbName)
		}
	}
	s.mu.Unlock()
	q.sub.close()
}

// closeSubsLocked closes and forgets every subscription on database
// name (all databases when name is empty); callers hold s.mu. The
// closes themselves are lock-ordering safe: subscription locks are
// leaves.
func (s *Service) closeSubsLocked(name string) {
	for db, m := range s.subs {
		if name != "" && db != name {
			continue
		}
		for _, sub := range m {
			sub.close()
		}
		delete(s.subs, db)
	}
}
