package blocking

import "entityres/internal/entity"

// CompareIterator streams the distinct suggested comparisons of a block
// collection in the same deterministic order as EachDistinctComparison
// (block order, first block wins), without ever materializing the full
// pair list. Each Next costs O(1) amortized plus the redundancy skipped,
// and memory is bounded by the distinct-pair dedup set. It defines which
// comparisons a block collection suggests: evaluation and the static
// progressive order read it, and the batch matcher, which walks an
// EntityIndex instead, is tested against it and falls back to it for
// block collections outside the index's domain.
//
// A CompareIterator is single-consumer.
type CompareIterator struct {
	bs   *Blocks
	seen *entity.PairSet
	bi   int // current block index
	i, j int // intra-block cursor (next candidate is (i, j))
}

// NewCompareIterator returns an iterator positioned before the first
// distinct comparison of bs.
func NewCompareIterator(bs *Blocks) *CompareIterator {
	it := &CompareIterator{bs: bs, seen: entity.NewPairSet(0)}
	if bs.Kind() != entity.CleanClean {
		it.j = 1
	}
	return it
}

// Next returns the next distinct comparison, or ok=false when the
// collection is exhausted.
func (it *CompareIterator) Next() (entity.Pair, bool) {
	kind := it.bs.Kind()
	for it.bi < it.bs.Len() {
		b := it.bs.Get(it.bi)
		if kind == entity.CleanClean {
			for it.i < len(b.S0) {
				for it.j < len(b.S1) {
					x, y := b.S0[it.i], b.S1[it.j]
					it.j++
					if it.seen.Add(x, y) {
						return entity.NewPair(x, y), true
					}
				}
				it.i++
				it.j = 0
			}
		} else {
			for it.i < len(b.S0) {
				for it.j < len(b.S0) {
					x, y := b.S0[it.i], b.S0[it.j]
					it.j++
					if it.seen.Add(x, y) {
						return entity.NewPair(x, y), true
					}
				}
				it.i++
				it.j = it.i + 1
			}
		}
		it.bi++
		it.i = 0
		if kind == entity.CleanClean {
			it.j = 0
		} else {
			it.j = 1
		}
	}
	return entity.Pair{}, false
}

// Seen returns how many distinct comparisons have been emitted so far.
func (it *CompareIterator) Seen() int { return it.seen.Len() }
