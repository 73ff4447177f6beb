package core

import (
	"fmt"

	"repro/internal/relation"
	"repro/internal/tupleset"
)

// TaskMeta describes one planned task of a partitioned enumeration:
// the per-relation pass it belongs to, the block of seed singletons it
// is seeded with ([SeedLo, SeedHi) within the pass relation), and its
// observability label. It is the plan-time shape of a Task: LayoutTasks
// turns these layouts into the Task lists execution runs and
// fd.Explain reports them, so a plan's task partition cannot drift
// from what execution runs.
type TaskMeta struct {
	// Pass is the seed relation of the per-relation pass.
	Pass int `json:"pass"`
	// Block and Blocks place the task within its pass: block Block of
	// Blocks (Blocks is 1 when the pass is not split).
	Block  int `json:"block"`
	Blocks int `json:"blocks"`
	// SeedLo and SeedHi bound the task's seed tuple indices:
	// [SeedLo, SeedHi) of the pass relation.
	SeedLo int `json:"seed_lo"`
	SeedHi int `json:"seed_hi"`
	// Label names the task in observability output.
	Label string `json:"label"`
}

// Seeds returns the number of seed singletons the task starts from.
func (m TaskMeta) Seeds() int { return m.SeedHi - m.SeedLo }

// ExactLayout computes the task partition a parallel exact enumeration
// runs with: one task per per-relation pass and, when workers exceed
// the number of relations, per block of seed singletons within a pass
// (never smaller than minTaskSeeds, see the package comment in
// parallel.go). Relations without tuples contribute no task — they
// seed no pass and own no results.
func ExactLayout(db *relation.Database, workers int) []TaskMeta {
	n := db.NumRelations()
	blocksPerPass := 1
	if n > 0 && workers > n {
		blocksPerPass = (workers + n - 1) / n
	}
	var layout []TaskMeta
	for pass := 0; pass < n; pass++ {
		length := db.Relation(pass).Len()
		if length == 0 {
			continue
		}
		blocks := blocksPerPass
		if most := length / minTaskSeeds; blocks > most {
			blocks = most
		}
		if blocks < 1 {
			blocks = 1
		}
		for b := 0; b < blocks; b++ {
			label := fmt.Sprintf("pass %d", pass)
			if blocks > 1 {
				label = fmt.Sprintf("pass %d block %d/%d", pass, b+1, blocks)
			}
			layout = append(layout, TaskMeta{
				Pass:   pass,
				Block:  b,
				Blocks: blocks,
				SeedLo: b * length / blocks,
				SeedHi: (b + 1) * length / blocks,
				Label:  label,
			})
		}
	}
	return layout
}

// ApproxLayout computes the task partition a parallel approximate
// enumeration runs with: one task per per-relation pass (passes are
// never block-split — the approximate walk has no seeded enumerator to
// restrict).
func ApproxLayout(db *relation.Database) []TaskMeta {
	layout := make([]TaskMeta, db.NumRelations())
	for pass := range layout {
		layout[pass] = TaskMeta{
			Pass:   pass,
			Blocks: 1,
			SeedHi: db.Relation(pass).Len(),
			Label:  fmt.Sprintf("approx pass %d", pass),
		}
	}
	return layout
}

// LayoutTasks attaches executable closures to a layout: open starts
// the enumeration of one planned task, and ownership follows the
// duplicate-avoidance rule below Corollary 4.7 refined to blocks — a
// result belongs to the pass of its minimal relation and, within that
// pass, to the block containing its seed-relation member.
func LayoutTasks(layout []TaskMeta, open func(TaskMeta) (TaskEnumerator, error)) []Task {
	tasks := make([]Task, len(layout))
	for i, m := range layout {
		tasks[i] = Task{
			Label: m.Label,
			Open:  func() (TaskEnumerator, error) { return open(m) },
			Owns: func(t *tupleset.Set) bool {
				if minRelation(t) != m.Pass {
					return false
				}
				mem, ok := t.Member(m.Pass)
				return ok && int(mem.Idx) >= m.SeedLo && int(mem.Idx) < m.SeedHi
			},
		}
	}
	return tasks
}
