package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"time"

	fd "repro"
	"repro/internal/relation"
	"repro/internal/workload"
)

// shape is one generated database layout, built client-side with
// internal/workload and uploaded as rows.
type shape struct {
	Kind   string  `json:"kind"` // chain, cycle or dirty
	Rels   int     `json:"relations"`
	Tuples int     `json:"tuples"`
	Domain int     `json:"domain"`
	Nulls  float64 `json:"null_rate"`
	// Imp draws tuple importances uniformly from [1, 5] so that ranking
	// functions have something to order by.
	Imp bool `json:"imp,omitempty"`
}

func (s shape) String() string {
	raw, _ := json.Marshal(s)
	return string(raw)
}

// build generates the database of this shape for seed.
func (s shape) build(seed int64) (*relation.Database, error) {
	cfg := workload.Config{Relations: s.Rels, TuplesPerRelation: s.Tuples, Domain: s.Domain,
		NullRate: s.Nulls, Seed: seed}
	var db *relation.Database
	var err error
	switch s.Kind {
	case "chain":
		db, err = workload.Chain(cfg)
	case "cycle":
		db, err = workload.Cycle(cfg)
	case "dirty":
		db, err = workload.DirtyChain(workload.DirtyConfig{Config: cfg, ErrorRate: 0.2, MaxEdits: 2, MinProb: 0.4})
	default:
		err = fmt.Errorf("unknown shape kind %q", s.Kind)
	}
	if err != nil {
		return nil, err
	}
	if s.Imp {
		// Tuples may be adjusted until the database's first query.
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		for _, rel := range db.Relations() {
			for j := 0; j < rel.Len(); j++ {
				rel.Tuple(j).Imp = 1 + 4*rng.Float64()
			}
		}
	}
	return db, nil
}

// mixSeed derives the seed of one generated input from the run seed,
// so that every input of a run is fixed by --seed.
func mixSeed(seed int64, parts ...int64) int64 {
	x := uint64(seed) ^ 0x9e3779b97f4a7c15
	for _, p := range parts {
		x ^= uint64(p) + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		x *= 0xbf58476d1ce4e5b9
	}
	return int64(x >> 1)
}

// --- upload encoding ---------------------------------------------------

type tupleJSON struct {
	Label  string    `json:"label"`
	Values []*string `json:"values"`
	Imp    float64   `json:"imp"`
	Prob   *float64  `json:"prob"`
}

type relationJSON struct {
	Name       string      `json:"name"`
	Attributes []string    `json:"attributes"`
	Tuples     []tupleJSON `json:"tuples"`
}

type createDatabaseJSON struct {
	Name      string         `json:"name"`
	Relations []relationJSON `json:"relations"`
}

type databaseInfo struct {
	Name        string `json:"name"`
	Tuples      int    `json:"tuples"`
	Fingerprint string `json:"fingerprint"`
}

func attrNames(rel *relation.Relation) []string {
	attrs := rel.Schema().Attributes()
	out := make([]string, len(attrs))
	for i, a := range attrs {
		out[i] = string(a)
	}
	return out
}

func encodeTuples(ts []relation.Tuple) []tupleJSON {
	out := make([]tupleJSON, len(ts))
	for i := range ts {
		t := &ts[i]
		vals := make([]*string, len(t.Values))
		for j, v := range t.Values {
			if !v.IsNull() {
				d := v.Datum()
				vals[j] = &d
			}
		}
		prob := t.Prob
		out[i] = tupleJSON{Label: t.Label, Values: vals, Imp: t.Imp, Prob: &prob}
	}
	return out
}

// encodeDatabase renders db as the POST /databases body.
func encodeDatabase(name string, db *relation.Database) ([]byte, error) {
	req := createDatabaseJSON{Name: name}
	for _, rel := range db.Relations() {
		ts := make([]relation.Tuple, rel.Len())
		for j := range ts {
			ts[j] = *rel.Tuple(j)
		}
		req.Relations = append(req.Relations, relationJSON{Name: rel.Name(),
			Attributes: attrNames(rel), Tuples: encodeTuples(ts)})
	}
	return json.Marshal(req)
}

func fingerprint(db *relation.Database) string { return fmt.Sprintf("%016x", db.Fingerprint()) }

// upload registers db on the server and checks the server built the
// same content, by fingerprint.
func (c *client) upload(name string, body []byte, want string) error {
	cl, err := c.do(http.MethodPost, "/databases", body, "upload", "")
	if err != nil {
		return err
	}
	var info databaseInfo
	if err := json.Unmarshal(cl.body, &info); err != nil {
		return fmt.Errorf("upload %s: %w", name, err)
	}
	c.h.checks.check("upload-fingerprint", info.Fingerprint == want,
		"database %s: server fingerprint %s, generated %s", name, info.Fingerprint, want)
	return nil
}

// listFingerprints returns the fingerprint of every listed database.
func (c *client) listFingerprints() (map[string]string, error) {
	var resp struct {
		Databases []databaseInfo `json:"databases"`
	}
	if err := c.getJSON("/databases", "list", &resp); err != nil {
		return nil, err
	}
	out := make(map[string]string, len(resp.Databases))
	for _, d := range resp.Databases {
		out[d.Name] = d.Fingerprint
	}
	return out, nil
}

// --- query sessions ----------------------------------------------------

// querySpec is the POST /queries body: the database name plus the
// fd.Query wire form. Options stay zero, so the server's defaults
// (both indexes on, its default worker count) apply.
type querySpec struct {
	Database string `json:"database"`
	fd.Query
}

func (q querySpec) ranked() bool {
	return q.Mode == fd.ModeRanked || q.Mode == fd.ModeApproxRanked
}

// inProcess is the same query for a local fd.Open at Workers 1, with
// the indexes the server defaults to.
func (q querySpec) inProcess() fd.Query {
	lq := q.Query
	lq.Follow = false
	lq.Options = fd.QueryOptions{UseIndex: true, UseJoinIndex: true, Workers: 1}
	return lq
}

type resultJSON struct {
	Set  string   `json:"set"`
	Rank *float64 `json:"rank"`
}

type pageJSON struct {
	Results []resultJSON `json:"results"`
	Done    bool         `json:"done"`
}

// session is one query session as the client ran it.
type session struct {
	spec    querySpec
	id      string
	cached  bool
	sets    []string
	ranks   []float64
	create  call
	nexts   []call
	results []int // results per next page
	bytes   int   // next-page body bytes
	first   time.Time
	last    time.Time
	closed  time.Time
	err     error
}

// runSession opens spec, reads a first page of firstK results, drains
// the rest in pages of pageK, and closes the session.
func (c *client) runSession(spec querySpec, firstK, pageK int) *session {
	s := &session{spec: spec}
	body, err := json.Marshal(spec)
	if err != nil {
		s.err = err
		return s
	}
	s.create, s.err = c.do(http.MethodPost, "/queries", body, "create", "")
	if s.err != nil {
		return s
	}
	var created struct {
		ID     string `json:"id"`
		Cached bool   `json:"cached"`
	}
	if s.err = json.Unmarshal(s.create.body, &created); s.err != nil {
		return s
	}
	s.id, s.cached = created.ID, created.Cached
	k := firstK
	for {
		cl, err := c.do(http.MethodGet, "/queries/"+s.id+"/next?k="+strconv.Itoa(k), nil, "next", s.id)
		if err != nil {
			s.err = err
			break
		}
		var p pageJSON
		if err := json.Unmarshal(cl.body, &p); err != nil {
			s.err = fmt.Errorf("decode page: %w", err)
			break
		}
		s.nexts = append(s.nexts, cl)
		s.results = append(s.results, len(p.Results))
		s.bytes += len(cl.body)
		if s.first.IsZero() {
			s.first = cl.end
		}
		s.last = cl.end
		for _, r := range p.Results {
			s.sets = append(s.sets, r.Set)
			if r.Rank != nil {
				s.ranks = append(s.ranks, *r.Rank)
			}
		}
		if p.Done {
			break
		}
		cl.body = nil
		k = pageK
	}
	for i := range s.nexts {
		s.nexts[i].body = nil
	}
	del, err := c.do(http.MethodDelete, "/queries/"+s.id, nil, "delete", s.id)
	if s.err == nil {
		s.err = err
	}
	s.closed = del.end
	return s
}

// drain runs spec to the end in pages of pageK and returns the session.
func (c *client) drain(spec querySpec, pageK int) *session { return c.runSession(spec, pageK, pageK) }

// sortedCopy returns the sets sorted: a multiset compares equal when
// the sorted lists do.
func sortedCopy(sets []string) []string {
	out := append([]string(nil), sets...)
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// firstDiff describes where two sorted multisets differ.
func firstDiff(got, want []string) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("sizes %d vs %d, first difference at %d: %q vs %q", len(got), len(want), i, got[i], want[i])
		}
	}
	return fmt.Sprintf("sizes %d vs %d", len(got), len(want))
}
