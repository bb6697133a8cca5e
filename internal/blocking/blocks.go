// Package blocking implements the blocking family surveyed in §II of the
// paper: grouping entity descriptions into (overlapping) blocks so that
// only descriptions sharing a block are ever compared. It provides the
// block data model plus the classic algorithms — standard (key-based)
// blocking, schema-agnostic token blocking, attribute-clustering blocking,
// prefix-infix-suffix(-style) URI blocking, sorted neighborhood, q-grams
// blocking, suffix-array blocking and canopy clustering.
//
// Post-processing of block collections (purging, filtering, redundancy
// removal) lives in package blockproc; meta-blocking in package
// metablocking.
package blocking

import (
	"fmt"
	"sort"

	"entityres/internal/entity"
)

// Block is one blocking unit: the descriptions that share one blocking key.
// For dirty collections every member is in S0 and every unordered pair of
// members is a suggested comparison. For clean-clean collections S0 and S1
// hold the members per source and the suggested comparisons are S0×S1.
type Block struct {
	// Key is the blocking key that produced the block (diagnostic; block
	// processing never interprets it).
	Key string
	S0  []entity.ID
	S1  []entity.ID
}

// Size returns the number of descriptions in the block.
func (b *Block) Size() int { return len(b.S0) + len(b.S1) }

// Comparisons returns the number of comparisons the block suggests,
// counting redundancy (the same pair may be suggested by other blocks too).
func (b *Block) Comparisons(kind entity.Kind) int64 {
	if kind == entity.CleanClean {
		return int64(len(b.S0)) * int64(len(b.S1))
	}
	n := int64(len(b.S0))
	return n * (n - 1) / 2
}

// EachComparison enumerates the suggested comparisons of the block in a
// deterministic order; enumeration stops early if fn returns false.
func (b *Block) EachComparison(kind entity.Kind, fn func(a, bID entity.ID) bool) {
	if kind == entity.CleanClean {
		for _, x := range b.S0 {
			for _, y := range b.S1 {
				if !fn(x, y) {
					return
				}
			}
		}
		return
	}
	for i := 0; i < len(b.S0); i++ {
		for j := i + 1; j < len(b.S0); j++ {
			if !fn(b.S0[i], b.S0[j]) {
				return
			}
		}
	}
}

// Members returns all description IDs of the block (S0 then S1).
func (b *Block) Members() []entity.ID {
	out := make([]entity.ID, 0, b.Size())
	out = append(out, b.S0...)
	out = append(out, b.S1...)
	return out
}

// Blocks is a blocking collection: the ordered list of blocks produced by a
// blocker over one entity collection.
type Blocks struct {
	kind entity.Kind
	list []*Block
}

// NewBlocks returns an empty block collection for the given setting.
func NewBlocks(kind entity.Kind) *Blocks { return &Blocks{kind: kind} }

// Kind returns the resolution setting of the collection.
func (bs *Blocks) Kind() entity.Kind { return bs.kind }

// Add appends a block. Blocks that suggest no comparison (fewer than two
// members; or an empty side in clean-clean) are dropped, since they can
// never contribute a match.
func (bs *Blocks) Add(b *Block) {
	if b == nil || b.Comparisons(bs.kind) == 0 {
		return
	}
	bs.list = append(bs.list, b)
}

// Len returns the number of blocks.
func (bs *Blocks) Len() int { return len(bs.list) }

// All returns the underlying block list ordered as produced. Callers must
// not mutate the list structure.
func (bs *Blocks) All() []*Block { return bs.list }

// Get returns the i-th block.
func (bs *Blocks) Get(i int) *Block { return bs.list[i] }

// TotalComparisons returns the aggregate comparisons of all blocks,
// counting redundant suggestions multiple times. This is the ||B|| measure
// used by blocking papers.
func (bs *Blocks) TotalComparisons() int64 {
	var n int64
	for _, b := range bs.list {
		n += b.Comparisons(bs.kind)
	}
	return n
}

// DistinctPairs materializes the deduplicated set of suggested comparisons.
// It costs O(||B||) and is meant for evaluation and for small-to-medium
// collections; streaming consumers should use EachDistinctComparison.
func (bs *Blocks) DistinctPairs() *entity.PairSet {
	ps := entity.NewPairSet(int(bs.TotalComparisons()))
	for _, b := range bs.list {
		b.EachComparison(bs.kind, func(x, y entity.ID) bool {
			ps.Add(x, y)
			return true
		})
	}
	return ps
}

// EachDistinctComparison enumerates each distinct suggested pair exactly
// once (first block wins), stopping early if fn returns false. It is a
// wrapper over CompareIterator so the push- and pull-based enumerations
// cannot drift apart.
func (bs *Blocks) EachDistinctComparison(fn func(p entity.Pair) bool) {
	it := NewCompareIterator(bs)
	for {
		p, ok := it.Next()
		if !ok {
			return
		}
		if !fn(p) {
			return
		}
	}
}

// SortBySize orders blocks by ascending comparison cardinality, breaking
// ties by key; the processing order assumed by block purging and by
// iterative blocking (cheap, high-precision blocks first).
func (bs *Blocks) SortBySize() {
	sort.SliceStable(bs.list, func(i, j int) bool {
		ci, cj := bs.list[i].Comparisons(bs.kind), bs.list[j].Comparisons(bs.kind)
		if ci != cj {
			return ci < cj
		}
		return bs.list[i].Key < bs.list[j].Key
	})
}

// BlocksOf returns, for every description ID, the indices of the blocks
// containing it. This is the entity-to-block index needed by meta-blocking
// weighting schemes and duplicate propagation.
func (bs *Blocks) BlocksOf() map[entity.ID][]int {
	m := make(map[entity.ID][]int)
	for i, b := range bs.list {
		for _, id := range b.S0 {
			m[id] = append(m[id], i)
		}
		for _, id := range b.S1 {
			m[id] = append(m[id], i)
		}
	}
	return m
}

// Stats summarizes a block collection for logs and experiment tables.
type Stats struct {
	NumBlocks          int
	TotalComparisons   int64
	MaxBlockSize       int
	AvgBlockSize       float64
	DistinctComparison int64
}

// ComputeStats returns summary statistics. When distinct is false the
// (costly) distinct-comparison count is skipped and reported as -1.
func (bs *Blocks) ComputeStats(distinct bool) Stats {
	st := Stats{NumBlocks: bs.Len(), TotalComparisons: bs.TotalComparisons(), DistinctComparison: -1}
	total := 0
	for _, b := range bs.list {
		s := b.Size()
		total += s
		if s > st.MaxBlockSize {
			st.MaxBlockSize = s
		}
	}
	if bs.Len() > 0 {
		st.AvgBlockSize = float64(total) / float64(bs.Len())
	}
	if distinct {
		st.DistinctComparison = int64(bs.DistinctPairs().Len())
	}
	return st
}

// String renders the stats compactly.
func (s Stats) String() string {
	return fmt.Sprintf("blocks=%d comparisons=%d distinct=%d maxSize=%d avgSize=%.2f",
		s.NumBlocks, s.TotalComparisons, s.DistinctComparison, s.MaxBlockSize, s.AvgBlockSize)
}

// Blocker is the common interface of all blocking algorithms.
type Blocker interface {
	// Name identifies the algorithm in experiment tables.
	Name() string
	// Block builds the blocking collection for c.
	Block(c *entity.Collection) (*Blocks, error)
}
