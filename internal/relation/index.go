package relation

// JoinIndex is the equi-join candidate index of a Database: for every
// relation and attribute position, a posting map from dictionary code to
// the ascending list of tuple indices carrying that code in that column.
//
// Together with the shared-attribute position pairs the database already
// precomputes, this turns "which tuples of relation j can possibly be
// join consistent with tuple t of relation i?" into a single map lookup:
// take t's code on the first shared position and read the posting list
// of the opposite column. NullCode never appears in a posting list — a
// null joins with nothing.
type JoinIndex struct {
	// postings[rel][pos] maps code → tuple indices (ascending).
	postings [][]map[int32][]int32
}

// buildJoinIndex constructs the index from the columnar code mirror.
func buildJoinIndex(cols [][][]int32) *JoinIndex {
	ix := &JoinIndex{postings: make([][]map[int32][]int32, len(cols))}
	for r, relCols := range cols {
		ix.postings[r] = make([]map[int32][]int32, len(relCols))
		for p, col := range relCols {
			m := make(map[int32][]int32)
			for idx, code := range col {
				if code == NullCode {
					continue
				}
				m[code] = append(m[code], int32(idx))
			}
			ix.postings[r][p] = m
		}
	}
	return ix
}

// extend derives the index of a database whose relation relIdx grew by
// appended tuples (Database.Extend): every other relation's posting
// maps are shared by pointer with the base index, and relIdx's maps are
// rebuilt with the new tuples' codes posted. Appended tuples take the
// highest indices, so posting lists stay ascending by construction.
// Posting slices that gain entries are reallocated rather than appended
// in place — the base index's slices may have spare capacity, and a
// shared-array write would corrupt the parent database under readers.
func (ix *JoinIndex) extend(relIdx int, relCols [][]int32, firstNew int) *JoinIndex {
	nd := &JoinIndex{postings: make([][]map[int32][]int32, len(ix.postings))}
	copy(nd.postings, ix.postings)
	maps := make([]map[int32][]int32, len(relCols))
	for p, col := range relCols {
		old := ix.postings[relIdx][p]
		m := make(map[int32][]int32, len(old)+1)
		for code, refs := range old {
			m[code] = refs
		}
		for idx := firstNew; idx < len(col); idx++ {
			code := col[idx]
			if code == NullCode {
				continue
			}
			refs := m[code]
			grown := make([]int32, len(refs), len(refs)+1)
			copy(grown, refs)
			m[code] = append(grown, int32(idx))
		}
		maps[p] = m
	}
	nd.postings[relIdx] = maps
	return nd
}

// Counts reports the index's size: the number of posting lists (one
// per distinct non-null code per column) and the total tuple
// references posted across all of them — the statistics fd.Explain
// reports for an engaged join index.
func (ix *JoinIndex) Counts() (lists, entries int) {
	for _, rel := range ix.postings {
		for _, m := range rel {
			lists += len(m)
			for _, refs := range m {
				entries += len(refs)
			}
		}
	}
	return lists, entries
}

// Postings returns the tuple indices of relation rel whose value at
// schema position pos has the given code, in ascending order. The
// returned slice is shared and must not be modified. NullCode and codes
// absent from the column yield nil.
func (ix *JoinIndex) Postings(rel, pos int, code int32) []int32 {
	if code == NullCode {
		return nil
	}
	return ix.postings[rel][pos][code]
}

// ForEachList calls fn with the code and the posting list of every
// distinct non-null code of column (rel, pos), in no particular order.
// The lists are shared and must not be modified.
func (ix *JoinIndex) ForEachList(rel, pos int, fn func(code int32, tuples []int32)) {
	for code, tuples := range ix.postings[rel][pos] {
		fn(code, tuples)
	}
}
