package service

import (
	"container/list"

	fd "repro"
)

// cacheKey files one drained result list: the content fingerprint of
// the database it was drained over and the canonical query spec
// (fd.Query.Canonical). fd.Explain renders the same two parts as
// Plan.CacheKey.
type cacheKey struct {
	fp        uint64
	canonical string
}

// resultCache is an LRU cache of fully-materialised result lists, keyed
// by database fingerprint + canonical query spec. Only queries drained
// to exhaustion enter the cache (a partial page sequence never
// represents the full disjunction), so a hit can serve any page of a
// repeated query without touching the enumerators.
//
// Eviction is bounded two ways: by entry count (capacity) and by the
// approximate heap bytes of the cached result lists (maxBytes), so one
// huge result list cannot pin unbounded memory behind a small entry
// count. An entry larger than the whole byte budget is never retained.
//
// The cache is not safe for concurrent use on its own; Service guards
// it with its mutex.
type resultCache struct {
	capacity int
	maxBytes int64
	total    int64      // approximate bytes across all entries
	ll       *list.List // front = most recently used
	entries  map[cacheKey]*list.Element
}

type cacheEntry struct {
	key     cacheKey
	results []Result
	bytes   int64
	// family is the predicate family whose append delta patches the
	// list across a fingerprint transition; meaningful only when
	// maintainable (fd.Query.Validate admits Follow on the spec).
	family       fd.Family
	maintainable bool
}

func newResultCache(capacity int, maxBytes int64) *resultCache {
	return &resultCache{
		capacity: capacity,
		maxBytes: maxBytes,
		ll:       list.New(),
		entries:  make(map[cacheKey]*list.Element),
	}
}

// get returns the cached result list for key, marking it most recently
// used.
func (c *resultCache) get(key cacheKey) ([]Result, bool) {
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).results, true
}

// put inserts (or refreshes) the result list for key, recording
// whether appends can maintain it and under which family, then evicts
// least recently used entries until both the entry-count and byte
// bounds hold, returning how many entries were evicted.
func (c *resultCache) put(key cacheKey, family fd.Family, maintainable bool, results []Result) int {
	if c.capacity <= 0 {
		return 0
	}
	bytes := approxResultsBytes(results)
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		c.total += bytes - e.bytes
		e.results, e.bytes, e.family, e.maintainable = results, bytes, family, maintainable
	} else {
		el := c.ll.PushFront(&cacheEntry{key: key, results: results, bytes: bytes,
			family: family, maintainable: maintainable})
		c.entries[key] = el
		c.total += bytes
	}
	evicted := 0
	for c.ll.Len() > 0 &&
		(c.ll.Len() > c.capacity || (c.maxBytes > 0 && c.total > c.maxBytes)) {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		e := oldest.Value.(*cacheEntry)
		delete(c.entries, e.key)
		c.total -= e.bytes
		evicted++
	}
	return evicted
}

// withFingerprint snapshots the entries drained over content
// fingerprint fp, without promoting them. The append path iterates the
// snapshot while removing and re-inserting entries.
func (c *resultCache) withFingerprint(fp uint64) []*cacheEntry {
	var out []*cacheEntry
	for key, el := range c.entries {
		if key.fp == fp {
			out = append(out, el.Value.(*cacheEntry))
		}
	}
	return out
}

// remove drops the entry for key, adjusting the byte accounting;
// reports whether an entry was present.
func (c *resultCache) remove(key cacheKey) bool {
	el, ok := c.entries[key]
	if !ok {
		return false
	}
	c.ll.Remove(el)
	e := el.Value.(*cacheEntry)
	delete(c.entries, key)
	c.total -= e.bytes
	return true
}

// peek reports whether key is cached, without promoting it — the
// prediction probe of Service.Explain must not disturb the LRU order
// an actual query would see.
func (c *resultCache) peek(key cacheKey) bool {
	_, ok := c.entries[key]
	return ok
}

// len returns the number of cached result lists.
func (c *resultCache) len() int { return c.ll.Len() }

// bytes returns the approximate heap bytes of all cached result lists.
func (c *resultCache) bytes() int64 { return c.total }

// approxResultsBytes estimates the heap footprint of one cached result
// list: the slice backing plus, per result, the Result struct and its
// tuple set.
func approxResultsBytes(rs []Result) int64 {
	n := int64(64)
	for i := range rs {
		n += 32
		if rs[i].Set != nil {
			n += int64(rs[i].Set.ApproxBytes())
		}
	}
	return n
}
