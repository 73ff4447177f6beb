package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/relation"
)

// Config controls a synthetic workload. All generators are
// deterministic for a fixed Seed.
type Config struct {
	// Relations is n, the number of relations.
	Relations int
	// TuplesPerRelation is the cardinality of each relation.
	TuplesPerRelation int
	// Domain is the number of distinct values per join attribute;
	// smaller domains produce more joinable pairs and larger full
	// disjunctions.
	Domain int
	// NullRate is the probability that a join-attribute value is ⊥.
	NullRate float64
	// ImpMax caps the importance values, drawn uniformly from
	// [1, ImpMax]; zero leaves imp(t)=1 for every tuple.
	ImpMax float64
	// Seed seeds the deterministic generator.
	Seed int64
}

func (c Config) validate() error {
	if c.Relations < 1 {
		return fmt.Errorf("workload: need at least one relation, got %d", c.Relations)
	}
	if c.TuplesPerRelation < 1 {
		return fmt.Errorf("workload: need at least one tuple per relation, got %d", c.TuplesPerRelation)
	}
	if c.Domain < 1 {
		return fmt.Errorf("workload: domain must be positive, got %d", c.Domain)
	}
	if c.NullRate < 0 || c.NullRate >= 1 {
		return fmt.Errorf("workload: null rate %v outside [0,1)", c.NullRate)
	}
	return nil
}

// Generate builds the workload of the named kind: chain, star, cycle,
// clique, random (each extra edge with probability extraEdgeProb, as
// Random) or dirty (a DirtyChain misspelling values at errorRate, with
// at most two edits a value and probabilities down to 0.4). It is the
// one kind switch of the fdgen and fdserve generators.
func Generate(kind string, cfg Config, extraEdgeProb, errorRate float64) (*relation.Database, error) {
	switch kind {
	case "chain":
		return Chain(cfg)
	case "star":
		return Star(cfg)
	case "cycle":
		return Cycle(cfg)
	case "clique":
		return Clique(cfg)
	case "random":
		return Random(cfg, extraEdgeProb)
	case "dirty":
		return DirtyChain(DirtyConfig{Config: cfg, ErrorRate: errorRate, MaxEdits: 2, MinProb: 0.4})
	default:
		return nil, fmt.Errorf("unknown workload kind %q", kind)
	}
}

// Chain generates a chain-connected database: Ri has schema
// (J(i-1), Ji, Pi) where J attributes join adjacent relations and Pi is
// a payload private to Ri. Chains are γ-acyclic, so the outerjoin
// baseline applies to them.
func Chain(cfg Config) (*relation.Database, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	rels := make([]*relation.Relation, cfg.Relations)
	for i := 0; i < cfg.Relations; i++ {
		attrs := []relation.Attribute{relation.Attribute(fmt.Sprintf("P%02d", i))}
		if i > 0 {
			attrs = append(attrs, joinAttr(i-1))
		}
		if i < cfg.Relations-1 {
			attrs = append(attrs, joinAttr(i))
		}
		rels[i] = relation.MustRelation(fmt.Sprintf("R%02d", i), relation.MustSchema(attrs...))
		fillRelation(rels[i], cfg, rng, i)
	}
	return relation.NewDatabase(rels...)
}

// Star generates a star-connected database: relation R00 is the hub
// with one join attribute per satellite; satellite Ri has (J(i-1), Pi).
// Stars are γ-acyclic.
func Star(cfg Config) (*relation.Database, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Relations < 2 {
		return nil, fmt.Errorf("workload: star needs at least two relations")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	rels := make([]*relation.Relation, cfg.Relations)
	hubAttrs := []relation.Attribute{"P00"}
	for i := 1; i < cfg.Relations; i++ {
		hubAttrs = append(hubAttrs, joinAttr(i-1))
	}
	rels[0] = relation.MustRelation("R00", relation.MustSchema(hubAttrs...))
	fillRelation(rels[0], cfg, rng, 0)
	for i := 1; i < cfg.Relations; i++ {
		attrs := []relation.Attribute{
			relation.Attribute(fmt.Sprintf("P%02d", i)), joinAttr(i - 1)}
		rels[i] = relation.MustRelation(fmt.Sprintf("R%02d", i), relation.MustSchema(attrs...))
		fillRelation(rels[i], cfg, rng, i)
	}
	return relation.NewDatabase(rels...)
}

// Cycle generates a cycle-connected database (Ri joins R(i±1 mod n)).
// Cycles of length > 2 are not γ-acyclic, exercising the generality of
// INCREMENTALFD beyond the outerjoin method.
func Cycle(cfg Config) (*relation.Database, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Relations < 3 {
		return nil, fmt.Errorf("workload: cycle needs at least three relations")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	rels := make([]*relation.Relation, cfg.Relations)
	for i := 0; i < cfg.Relations; i++ {
		attrs := []relation.Attribute{
			relation.Attribute(fmt.Sprintf("P%02d", i)),
			joinAttr(i),
			joinAttr((i + cfg.Relations - 1) % cfg.Relations),
		}
		rels[i] = relation.MustRelation(fmt.Sprintf("R%02d", i), relation.MustSchema(attrs...))
		fillRelation(rels[i], cfg, rng, i)
	}
	return relation.NewDatabase(rels...)
}

// Clique generates a database whose relations all share one join
// attribute J (every pair connected). With imp(t)=1 for all t, the
// highest fsum tuple set answers natural-join emptiness — the workload
// behind Proposition 5.1's hardness experiment.
func Clique(cfg Config) (*relation.Database, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	rels := make([]*relation.Relation, cfg.Relations)
	for i := 0; i < cfg.Relations; i++ {
		attrs := []relation.Attribute{
			relation.Attribute(fmt.Sprintf("P%02d", i)), "J00"}
		rels[i] = relation.MustRelation(fmt.Sprintf("R%02d", i), relation.MustSchema(attrs...))
		fillRelation(rels[i], cfg, rng, i)
	}
	return relation.NewDatabase(rels...)
}

// Random generates a database over a random connected schema graph:
// a random spanning tree plus extra edges added with probability
// extraEdgeProb. Each edge gets its own join attribute.
func Random(cfg Config, extraEdgeProb float64) (*relation.Database, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.Relations
	attrsOf := make([][]relation.Attribute, n)
	for i := 0; i < n; i++ {
		attrsOf[i] = []relation.Attribute{relation.Attribute(fmt.Sprintf("P%02d", i))}
	}
	edge := 0
	addEdge := func(a, b int) {
		j := joinAttr(edge)
		edge++
		attrsOf[a] = append(attrsOf[a], j)
		attrsOf[b] = append(attrsOf[b], j)
	}
	// Random spanning tree: attach each vertex to a random earlier one.
	for i := 1; i < n; i++ {
		addEdge(rng.Intn(i), i)
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if rng.Float64() < extraEdgeProb {
				addEdge(a, b)
			}
		}
	}
	rels := make([]*relation.Relation, n)
	for i := 0; i < n; i++ {
		rels[i] = relation.MustRelation(fmt.Sprintf("R%02d", i), relation.MustSchema(attrsOf[i]...))
		fillRelation(rels[i], cfg, rng, i)
	}
	return relation.NewDatabase(rels...)
}

func joinAttr(i int) relation.Attribute {
	return relation.Attribute(fmt.Sprintf("J%02d", i))
}

// fillRelation populates rel with cfg.TuplesPerRelation random tuples.
// Join attributes (J*) draw from the shared domain with the configured
// null rate; payload attributes (P*) are unique per tuple.
func fillRelation(rel *relation.Relation, cfg Config, rng *rand.Rand, relIdx int) {
	schema := rel.Schema()
	for t := 0; t < cfg.TuplesPerRelation; t++ {
		tuple := relation.Tuple{
			Label:  fmt.Sprintf("%s_t%d", rel.Name(), t),
			Values: make([]relation.Value, schema.Len()),
			Imp:    1,
			Prob:   1,
		}
		for p, a := range schema.Attributes() {
			if a[0] == 'P' {
				tuple.Values[p] = relation.V(fmt.Sprintf("p%d_%d", relIdx, t))
				continue
			}
			if cfg.NullRate > 0 && rng.Float64() < cfg.NullRate {
				continue // stays ⊥
			}
			tuple.Values[p] = relation.V(fmt.Sprintf("v%d", rng.Intn(cfg.Domain)))
		}
		if cfg.ImpMax > 1 {
			tuple.Imp = 1 + rng.Float64()*(cfg.ImpMax-1)
		}
		if err := rel.AppendTuple(tuple); err != nil {
			panic(err) // unreachable: tuple built to match schema
		}
	}
}
