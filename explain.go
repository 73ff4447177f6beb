package fd

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
)

// Plan is Explain's report: everything the engine decides about a
// query before running it — the join-graph structure it will traverse,
// the dictionary and index statistics behind its scans, the execution
// strategy (and, for a parallel run, the exact task partition), and
// the key a result cache would file the answer under. The report is
// JSON-serialisable and round-trips losslessly; fdserve serves it at
// POST /explain and fdcli prints it with -explain.
//
// The strategy section is not a guess: the task layout comes from the
// same core.Layout computation the parallel executor partitions both
// exact and approximate passes with, so a plan's task list is what an
// execution of the same query over the same database runs.
type Plan struct {
	// Query is the normalised spec the engine would execute.
	Query Query `json:"query"`
	// CacheKey is the result-cache key of the query over this database:
	// the content fingerprint (in %016x form) and the canonical spec
	// (Query.Canonical), joined by "|" — the two parts internal/service
	// files a drained result list by.
	CacheKey string `json:"cache_key"`
	// Database describes the relations and their dictionary encoding.
	Database PlanDatabase `json:"database"`
	// JoinGraph describes the relation connection graph.
	JoinGraph PlanGraph `json:"join_graph"`
	// Index reports the access structures the query engages.
	Index PlanIndex `json:"index"`
	// Strategy reports the chosen execution shape.
	Strategy PlanStrategy `json:"strategy"`
}

// PlanDatabase describes the queried database.
type PlanDatabase struct {
	// Fingerprint is the content fingerprint, in the %016x form cache
	// keys use.
	Fingerprint string `json:"fingerprint"`
	// Relations lists the relations in database order.
	Relations []PlanRelation `json:"relations"`
	// Tuples is the total tuple count across relations.
	Tuples int `json:"tuples"`
	// DictSize is the number of distinct non-null values in the
	// dictionary encoding.
	DictSize int `json:"dict_size"`
}

// PlanRelation describes one relation of the plan's database.
type PlanRelation struct {
	Name string `json:"name"`
	// Arity is the number of attributes.
	Arity int `json:"arity"`
	// Tuples is the relation's tuple count.
	Tuples int `json:"tuples"`
	// Adjacent names the relations sharing at least one attribute.
	Adjacent []string `json:"adjacent,omitempty"`
}

// PlanGraph describes the relation connection graph (one vertex per
// relation, an edge where schemas share an attribute).
type PlanGraph struct {
	// Connected reports whether one component spans every relation — a
	// full disjunction only combines all relations when it does.
	Connected bool `json:"connected"`
	// Chain and Tree classify the shape (the γ-acyclic workloads).
	Chain bool `json:"chain"`
	Tree  bool `json:"tree"`
	// Components lists the connected components, each as relation names
	// in index order.
	Components [][]string `json:"components"`
}

// PlanIndex reports which access structures the query engages.
type PlanIndex struct {
	// HashIndex reports that the §7 hash index over the Complete and
	// Incomplete lists is on; every query runs with it.
	HashIndex bool `json:"hash_index"`
	// JoinIndex reports that the join candidate index engages: the
	// equi-join postings, which the approximate modes widen to the
	// τ-similar codes of a graded similarity. Every query runs with it.
	JoinIndex bool `json:"join_index"`
	// PostingLists and PostingEntries size the join index: the number
	// of posting lists and the tuple references they hold.
	PostingLists   int `json:"posting_lists"`
	PostingEntries int `json:"posting_entries"`
}

// PlanStrategy reports the execution shape Open would choose.
type PlanStrategy struct {
	// Execution is "sequential" or "parallel".
	Execution string `json:"execution"`
	// Reason explains a sequential choice when parallelism was
	// requested or defaulted.
	Reason string `json:"reason,omitempty"`
	// Workers is the effective worker count: 1 on the sequential paths,
	// otherwise the resolved Workers clamped to the task count.
	Workers int `json:"workers"`
	// Passes is the number of per-relation passes the enumeration
	// consists of.
	Passes int `json:"passes"`
	// Tasks is the parallel partition layout: one entry per task, with
	// its pass, block and seed range. Empty for sequential execution.
	Tasks []PlanTask `json:"tasks,omitempty"`
}

// PlanTask is one planned unit of a partitioned enumeration.
type PlanTask struct {
	// Label names the task as observability output will ("pass 2",
	// "pass 0 block 1/4").
	Label string `json:"label"`
	// Pass is the seed relation index.
	Pass int `json:"pass"`
	// Block of Blocks places the task within its pass.
	Block  int `json:"block"`
	Blocks int `json:"blocks"`
	// Seeds is the number of seed singletons: the task's anchor window,
	// indices [SeedLo, SeedHi) of the pass relation.
	Seeds  int `json:"seeds"`
	SeedLo int `json:"seed_lo"`
	SeedHi int `json:"seed_hi"`
}

// Explain reports the plan of q over db without executing it: how the
// engine classifies the join graph, which indexes engage, whether the
// run would be sequential or parallel and under what task partition,
// and the cache key the results would be filed under. Like a first
// query, Explain freezes db (the fingerprint and dictionary statistics
// require the encoded form).
func Explain(db *Database, q Query) (*Plan, error) {
	if db == nil {
		return nil, fmt.Errorf("fd: nil database")
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	n := q.normalize()

	p := &Plan{
		Query:    n,
		CacheKey: fmt.Sprintf("%016x|%s", db.Fingerprint(), n.Canonical()),
	}

	p.Database = PlanDatabase{
		Fingerprint: fmt.Sprintf("%016x", db.Fingerprint()),
		Tuples:      db.NumTuples(),
		DictSize:    db.Dict().Len(),
		Relations:   make([]PlanRelation, db.NumRelations()),
	}
	for i := range p.Database.Relations {
		rel := db.Relation(i)
		pr := PlanRelation{
			Name:   rel.Name(),
			Arity:  rel.Schema().Len(),
			Tuples: rel.Len(),
		}
		for _, j := range db.Adjacent(i) {
			pr.Adjacent = append(pr.Adjacent, db.Relation(j).Name())
		}
		p.Database.Relations[i] = pr
	}

	conn := graph.NewConnection(db)
	p.JoinGraph = PlanGraph{
		Connected: conn.Connected(),
		Chain:     conn.IsChain(),
		Tree:      conn.IsTree(),
	}
	for _, comp := range conn.Components() {
		names := make([]string, len(comp))
		for i, r := range comp {
			names[i] = db.Relation(r).Name()
		}
		p.JoinGraph.Components = append(p.JoinGraph.Components, names)
	}

	p.Index = PlanIndex{HashIndex: true, JoinIndex: true}
	p.Index.PostingLists, p.Index.PostingEntries = db.Index().Counts()

	p.Strategy = PlanStrategy{Passes: db.NumRelations()}
	workers := q.ParallelWorkers()
	if workers > 1 {
		layout := core.Layout(db, workers)
		if workers > len(layout) {
			// No more tasks run at once than there are tasks.
			workers = len(layout)
		}
		p.Strategy.Execution = "parallel"
		p.Strategy.Workers = workers
		p.Strategy.Tasks = make([]PlanTask, len(layout))
		for i, m := range layout {
			p.Strategy.Tasks[i] = PlanTask{
				Label:  m.Label,
				Pass:   m.Pass,
				Block:  m.Block,
				Blocks: m.Blocks,
				Seeds:  m.Seeds(),
				SeedLo: m.SeedLo,
				SeedHi: m.SeedHi,
			}
		}
		return p, nil
	}

	p.Strategy.Execution = "sequential"
	p.Strategy.Workers = 1
	switch {
	case n.Mode.ranked():
		p.Strategy.Reason = "ranked enumeration is inherently serial (the Fig 3 priority-queue order)"
	case q.Options.Workers == 1:
		p.Strategy.Reason = "one worker requested"
	default:
		p.Strategy.Reason = "one worker resolved (Workers 0 selects GOMAXPROCS)"
	}
	return p, nil
}
