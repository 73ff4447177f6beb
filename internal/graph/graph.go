// Package graph provides connectivity analysis over the relation
// connection graph of a database: the graph with one vertex per
// relation and an edge between two relations iff their schemas share an
// attribute (Section 2 of Cohen & Sagiv 2007).
//
// The package also implements shape detection (trees, chains, stars)
// and the Berge-acyclicity test the Rajaraman–Ullman outerjoin
// baseline needs: that baseline is only applicable to γ-acyclic
// schemas, and Berge-acyclicity implies γ-acyclicity.
package graph

import (
	"math/bits"

	"repro/internal/relation"
)

// Connection is an adjacency view over the relations of a database.
// Besides the neighbour lists it precomputes per-vertex adjacency
// bitmasks ([]uint64 words), the representation the signature-based
// tuple-set predicates operate on.
type Connection struct {
	n     int
	words int
	adj   [][]int
	// adjBits[i] is the neighbour set of vertex i as bit words.
	adjBits [][]uint64
}

// NewConnection builds the connection graph of db.
func NewConnection(db *relation.Database) *Connection {
	n := db.NumRelations()
	words := (n + 63) / 64
	adj := make([][]int, n)
	adjBits := make([][]uint64, n)
	flat := make([]uint64, n*words)
	for i := 0; i < n; i++ {
		adj[i] = db.Adjacent(i)
		adjBits[i] = flat[i*words : (i+1)*words : (i+1)*words]
		for _, j := range adj[i] {
			adjBits[i][j/64] |= 1 << (uint(j) % 64)
		}
	}
	return &Connection{n: n, words: words, adj: adj, adjBits: adjBits}
}

// N returns the number of vertices (relations).
func (c *Connection) N() int { return c.n }

// Words returns the number of uint64 words of a vertex bitmask.
func (c *Connection) Words() int { return c.words }

// Adjacent returns the neighbours of vertex i.
func (c *Connection) Adjacent(i int) []int { return c.adj[i] }

// AdjacentBits returns the neighbour set of vertex i as bit words. The
// returned slice must not be modified.
func (c *Connection) AdjacentBits(i int) []uint64 { return c.adjBits[i] }

// TouchesBits reports whether vertex i is adjacent to any member of the
// given vertex bitmask.
func (c *Connection) TouchesBits(i int, members []uint64) bool {
	for w, word := range c.adjBits[i] {
		if word&members[w] != 0 {
			return true
		}
	}
	return false
}

// ComponentOfBitsInto computes the connected component containing start
// of the subgraph induced by the members bitmask, writing the result
// into out (which must have Words() entries; it is overwritten). start
// must be a member, otherwise out is left all-zero. It is the bitset
// counterpart of ComponentOf and allocates nothing.
func (c *Connection) ComponentOfBitsInto(out, members []uint64, start int) {
	for w := range out {
		out[w] = 0
	}
	if members[start/64]&(1<<(uint(start)%64)) == 0 {
		return
	}
	out[start/64] |= 1 << (uint(start) % 64)
	// Fixpoint propagation: every round ORs the adjacency masks of the
	// reached vertices, restricted to members, until nothing new is
	// added. Rounds are bounded by the graph diameter and relation
	// counts are small, so the quadratic worst case is irrelevant next
	// to the zero-allocation property this loop buys.
	if c.words == 1 {
		// ≤64 vertices: the whole walk runs on registers.
		reached, mem := out[0], members[0]
		for {
			next := reached
			word := reached
			for word != 0 {
				v := bits.TrailingZeros64(word)
				word &= word - 1
				next |= c.adjBits[v][0] & mem
			}
			if next == reached {
				out[0] = reached
				return
			}
			reached = next
		}
	}
	for changed := true; changed; {
		changed = false
		for w := 0; w < c.words; w++ {
			word := out[w]
			for word != 0 {
				v := w*64 + bits.TrailingZeros64(word)
				word &= word - 1
				for aw, amask := range c.adjBits[v] {
					add := amask & members[aw] &^ out[aw]
					if add != 0 {
						out[aw] |= add
						changed = true
					}
				}
			}
		}
	}
}

// SubsetConnectedBits reports whether the subgraph induced by the
// members bitmask is connected (and non-empty) — the bitset counterpart
// of SubsetConnected. scratch, when non-nil with Words() entries, is
// used as working storage so hot callers can avoid the allocation.
func (c *Connection) SubsetConnectedBits(members, scratch []uint64) bool {
	first := -1
	total := 0
	for w, word := range members {
		if word != 0 {
			if first < 0 {
				first = w*64 + bits.TrailingZeros64(word)
			}
			total += bits.OnesCount64(word)
		}
	}
	if total == 0 {
		return false
	}
	if scratch == nil {
		scratch = make([]uint64, c.words)
	}
	c.ComponentOfBitsInto(scratch, members, first)
	count := 0
	for _, word := range scratch {
		count += bits.OnesCount64(word)
	}
	return count == total
}

// Connected reports whether the whole graph is connected. A set of
// relations must be connected for its full disjunction to combine all
// of them (Section 2).
func (c *Connection) Connected() bool {
	if c.n == 0 {
		return false
	}
	seen := make([]bool, c.n)
	count := c.bfs(0, nil, seen)
	return count == c.n
}

// ComponentOf returns the vertices of the connected component of the
// subgraph induced by members that contains start. members[i] reports
// whether vertex i participates; start must be a member. The result is
// returned as a boolean inclusion vector aligned with members.
//
// This is the operation of footnote 3: after dropping tuples that are
// not join consistent with tb, keep the tuples whose relations lie in
// the connected component of tb's relation.
func (c *Connection) ComponentOf(start int, members []bool) []bool {
	inComp := make([]bool, c.n)
	if !members[start] {
		return inComp
	}
	queue := []int{start}
	inComp[start] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range c.adj[v] {
			if members[w] && !inComp[w] {
				inComp[w] = true
				queue = append(queue, w)
			}
		}
	}
	return inComp
}

// SubsetConnected reports whether the subgraph induced by the member
// vertices is connected (and non-empty). This is the connectivity half
// of the JCC predicate.
func (c *Connection) SubsetConnected(members []bool) bool {
	first := -1
	total := 0
	for i, m := range members {
		if m {
			total++
			if first < 0 {
				first = i
			}
		}
	}
	if total == 0 {
		return false
	}
	comp := c.ComponentOf(first, members)
	count := 0
	for _, in := range comp {
		if in {
			count++
		}
	}
	return count == total
}

// Components returns the connected components of the whole graph, each
// as a sorted list of vertex indices.
func (c *Connection) Components() [][]int {
	seen := make([]bool, c.n)
	var comps [][]int
	for i := 0; i < c.n; i++ {
		if seen[i] {
			continue
		}
		var comp []int
		c.bfs(i, &comp, seen)
		comps = append(comps, comp)
	}
	return comps
}

func (c *Connection) bfs(start int, out *[]int, seen []bool) int {
	queue := []int{start}
	seen[start] = true
	count := 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		count++
		if out != nil {
			*out = append(*out, v)
		}
		for _, w := range c.adj[v] {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return count
}

// IsTree reports whether the connection graph is a tree: connected with
// exactly n-1 edges. Chains and stars — the γ-acyclic workloads used by
// the outerjoin baseline — are trees.
func (c *Connection) IsTree() bool {
	if !c.Connected() {
		return false
	}
	edges := 0
	for _, nb := range c.adj {
		edges += len(nb)
	}
	edges /= 2
	return edges == c.n-1
}

// IsChain reports whether the connection graph is a simple path
// visiting every relation.
func (c *Connection) IsChain() bool {
	if !c.IsTree() {
		return false
	}
	deg2 := 0
	for _, nb := range c.adj {
		switch len(nb) {
		case 0:
			return c.n == 1
		case 1:
		case 2:
			deg2++
		default:
			return false
		}
	}
	return c.n <= 2 || deg2 == c.n-2
}

// TreeOrder returns a parent-first ordering of the vertices of a tree
// connection graph rooted at root, suitable for a left-deep sequence of
// outerjoins (each relation after the first joins an already-joined
// neighbour). ok is false when the graph is not a tree.
func (c *Connection) TreeOrder(root int) (order []int, ok bool) {
	if !c.IsTree() {
		return nil, false
	}
	seen := make([]bool, c.n)
	c.bfs(root, &order, seen)
	return order, true
}

// BFSOrder returns a breadth-first ordering of the connected component
// of root: every vertex after the first is adjacent to an earlier one.
// Unlike TreeOrder it accepts any graph.
func (c *Connection) BFSOrder(root int) []int {
	var order []int
	seen := make([]bool, c.n)
	c.bfs(root, &order, seen)
	return order
}
