package core

import (
	"fmt"

	"repro/internal/relation"
	"repro/internal/tupleset"
)

// TaskMeta describes one planned task of a partitioned enumeration:
// the per-relation pass it belongs to, its anchor window ([SeedLo,
// SeedHi) within the pass relation: the seed singletons it starts from
// and the anchors of the results it produces), and its observability
// label. It is the plan-time shape of a Task: passTasks
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
	// SeedLo and SeedHi bound the task's anchor window: seed tuple
	// indices [SeedLo, SeedHi) of the pass relation.
	SeedLo int `json:"seed_lo"`
	SeedHi int `json:"seed_hi"`
	// Label names the task in observability output.
	Label string `json:"label"`
}

// Seeds returns the number of seed singletons the task starts from.
func (m TaskMeta) Seeds() int { return m.SeedHi - m.SeedLo }

// Layout computes the task partition a parallel enumeration runs
// with, for the exact and the approximate passes alike: one task per
// per-relation pass at one worker and, at more, one task per worker
// for every pass — the pass relation cut into that many anchor windows,
// never smaller than minTaskSeeds (see the package comment in
// parallel.go). Relations without tuples contribute no task — they
// seed no pass and anchor no results.
func Layout(db *relation.Database, workers int) []TaskMeta {
	var layout []TaskMeta
	for pass := 0; pass < db.NumRelations(); pass++ {
		length := db.Relation(pass).Len()
		if length == 0 {
			continue
		}
		blocks := max(min(workers, length/minTaskSeeds), 1)
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

// passTasks attaches executable closures to the layout of the
// restart-strategy enumeration of FD(R) under p — the layout fd.Explain
// reports — so one skewed relation doesn't serialise the run. A task
// opens the suffix pass enumerator of its anchor window [SeedLo,
// SeedHi), so a block task produces only the results anchored in its
// block. The pass enumerators keep only the results whose minimal
// relation is their pass, so the tasks' outputs are disjoint and no
// task needs an ownership filter.
func passTasks(u *tupleset.Universe, p Predicate, opts Options, workers int) []Task {
	layout := Layout(u.DB, workers)
	tasks := make([]Task, len(layout))
	for i, m := range layout {
		tasks[i] = Task{
			Label: m.Label,
			Open: func() (TaskEnumerator, error) {
				return NewPassEnumerator(u, p, m.Pass, m.SeedLo, m.SeedHi, opts)
			},
		}
	}
	return tasks
}
