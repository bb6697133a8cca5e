package blocking

import (
	"math"

	"entityres/internal/entity"
)

// EntityIndex is the CSR entity index of a block collection: record i's
// block ids, ascending, are Blk[Off[i]:Off[i+1]]. Records are indexed
// densely up to the largest member ID. Batch meta-blocking weighs and
// prunes over it, and the batch matcher walks it to enumerate every
// distinct comparison once.
type EntityIndex struct {
	Blocks []*Block
	Clean  bool
	Off    []int32
	Blk    []int32
	// Side is a clean-clean record's side: 1 for S0, 2 for S1, 0 for a
	// record in no block (nil when dirty).
	Side []uint8
}

// Records returns the number of indexed records: one past the largest
// member ID.
func (ix *EntityIndex) Records() int { return len(ix.Off) - 1 }

// BlocksPer returns the number of blocks containing record i (|B_i|).
func (ix *EntityIndex) BlocksPer(i int) int { return int(ix.Off[i+1] - ix.Off[i]) }

// BlocksOf returns the ids of the blocks containing record i, ascending.
func (ix *EntityIndex) BlocksOf(i int) []int32 { return ix.Blk[ix.Off[i]:ix.Off[i+1]] }

// Partners returns the members of block b that record i, a member, is
// compared with: the other side for a clean-clean record, the whole block
// (i included) for a dirty one.
func (ix *EntityIndex) Partners(i int, b int32) []entity.ID {
	if ix.Clean && ix.Side[i] == 1 {
		return ix.Blocks[b].S1
	}
	return ix.Blocks[b].S0
}

// IndexBlocks builds the entity index of bs in two passes, or reports false
// when bs lies outside the index's domain: a block that suggests no
// comparison, an S1 side in a dirty collection, a member repeated in a
// block, a record on both sides of a clean-clean collection, or negative or
// very sparse IDs. Within the domain every member of every block has a
// comparison partner, and the distinct comparisons are exactly the pairs
// the index's neighbourhoods yield.
func IndexBlocks(bs *Blocks) (*EntityIndex, bool) {
	blocks := bs.All()
	clean := bs.Kind() == entity.CleanClean
	var count []int32
	assignments := 0
	for _, b := range blocks {
		if b.Comparisons(bs.Kind()) == 0 || (!clean && len(b.S1) > 0) {
			return nil, false
		}
		for _, side := range [2][]entity.ID{b.S0, b.S1} {
			for _, id := range side {
				if id < 0 || id >= math.MaxInt32 {
					return nil, false
				}
				if id >= len(count) {
					count = append(count, make([]int32, id+1-len(count))...)
				}
				count[id]++
			}
			assignments += len(side)
		}
	}
	// A dense index over a few members with huge IDs would cost more than
	// the pair structures it replaces.
	if assignments >= math.MaxInt32 || len(count) > 4*assignments+1024 {
		return nil, false
	}
	ix := &EntityIndex{Blocks: blocks, Clean: clean, Off: make([]int32, len(count)+1), Blk: make([]int32, assignments)}
	for i, n := range count {
		ix.Off[i+1] = ix.Off[i] + n
	}
	next := count // reused as each record's fill cursor
	copy(next, ix.Off[:len(count)])
	if clean {
		ix.Side = make([]uint8, len(count))
	}
	for bi, b := range blocks {
		for side, ids := range [2][]entity.ID{b.S0, b.S1} {
			for _, id := range ids {
				at := next[id]
				// Blocks are filled in ascending order, so a repeated member
				// of this block is the record's previous entry.
				if at > ix.Off[id] && ix.Blk[at-1] == int32(bi) {
					return nil, false
				}
				if clean {
					if ix.Side[id] != 0 && ix.Side[id] != uint8(side+1) {
						return nil, false
					}
					ix.Side[id] = uint8(side + 1)
				}
				ix.Blk[at] = int32(bi)
				next[id] = at + 1
			}
		}
	}
	return ix, true
}
