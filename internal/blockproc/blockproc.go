// Package blockproc implements block post-processing (§II of the paper):
// techniques that take a blocking collection and discard comparisons that
// cannot or are unlikely to produce matches, without looking at the
// descriptions themselves. It covers block purging (dropping oversized
// blocks) and block filtering (retaining each description only in its most
// selective blocks). Comparison propagation, which suppresses redundant
// comparisons repeated across overlapping blocks, happens in the batch
// matcher's neighbourhood walk (matching.ResolveBlocksParallel).
package blockproc

import (
	"fmt"
	"math"
	"sort"

	"entityres/internal/blocking"
	"entityres/internal/entity"
)

// Processor transforms one blocking collection into a cheaper one.
type Processor interface {
	// Name identifies the processor in experiment tables.
	Name() string
	// Process returns the transformed collection; the input is not
	// modified.
	Process(bs *blocking.Blocks) *blocking.Blocks
}

// MaxComparisonsPurge drops every block suggesting more comparisons than
// Max. It is the blunt form of block purging: oversized blocks stem from
// stopword-like keys and contribute mostly superfluous comparisons.
type MaxComparisonsPurge struct {
	// Max is the per-block comparison budget; blocks above it are dropped.
	Max int64
}

// Name implements Processor.
func (p *MaxComparisonsPurge) Name() string { return fmt.Sprintf("purge(max=%d)", p.Max) }

// Process implements Processor.
func (p *MaxComparisonsPurge) Process(bs *blocking.Blocks) *blocking.Blocks {
	out := blocking.NewBlocks(bs.Kind())
	for _, b := range bs.All() {
		if b.Comparisons(bs.Kind()) <= p.Max {
			out.Add(b)
		}
	}
	return out
}

// AutoPurge is the assumption-free block purging of [20]: the per-block
// comparison cutoff is derived from the collection itself. Blocks are
// grouped by comparison cardinality in ascending order while tracking the
// cumulative comparisons-per-assignment ratio; the cutoff is set just
// before the first cardinality at which that ratio grows by more than
// SmoothFactor. Oversized (stopword-key) blocks add enormously many
// comparisons per entity-block assignment, so they sit after a sharp ratio
// jump and are dropped, while collections with uniformly sized blocks see
// no jump and are kept intact.
type AutoPurge struct {
	// SmoothFactor bounds the tolerated growth of the cumulative
	// comparisons-per-assignment ratio between consecutive block
	// cardinalities; values ≤ 1 default to 2.0. The ratio grows gradually
	// across the legitimate size spectrum (well under 2× per step) and
	// multiplies abruptly when a stopword-key block enters, so a doubling
	// marks the explosion point.
	SmoothFactor float64
}

// Name implements Processor.
func (p *AutoPurge) Name() string { return "autopurge" }

// Cutoff returns the chosen per-block comparison bound for bs.
func (p *AutoPurge) Cutoff(bs *blocking.Blocks) int64 {
	smooth := p.SmoothFactor
	if smooth <= 1 {
		smooth = 2.0
	}
	// Aggregate assignments and comparisons per distinct cardinality.
	perCard := make(map[int64]*[2]int64) // cardinality → {assignments, comparisons}
	for _, b := range bs.All() {
		c := b.Comparisons(bs.Kind())
		agg, ok := perCard[c]
		if !ok {
			agg = &[2]int64{}
			perCard[c] = agg
		}
		agg[0] += int64(b.Size())
		agg[1] += c
	}
	if len(perCard) == 0 {
		return 0
	}
	cards := make([]int64, 0, len(perCard))
	for c := range perCard {
		cards = append(cards, c)
	}
	sort.Slice(cards, func(i, j int) bool { return cards[i] < cards[j] })
	var cumAssign, cumComp int64
	prevRatio := 0.0
	cutoff := cards[len(cards)-1]
	for i, c := range cards {
		cumAssign += perCard[c][0]
		cumComp += perCard[c][1]
		ratio := float64(cumComp) / float64(cumAssign)
		if i > 0 && prevRatio > 0 && ratio > smooth*prevRatio {
			cutoff = cards[i-1]
			break
		}
		prevRatio = ratio
	}
	return cutoff
}

// Process implements Processor.
func (p *AutoPurge) Process(bs *blocking.Blocks) *blocking.Blocks {
	cut := p.Cutoff(bs)
	return (&MaxComparisonsPurge{Max: cut}).Process(bs)
}

// SizePurge drops every block containing more than Fraction of the
// distinct descriptions appearing in the collection — the size-based
// purging variant: a key shared by a substantial fraction of all
// descriptions (cities, genres, years) has no discriminative power
// regardless of how the comparison counts are distributed. It complements
// AutoPurge, which only fires on discontinuous cardinality explosions.
type SizePurge struct {
	// Fraction is the maximum block size as a fraction of the distinct
	// descriptions in the collection, in (0,1]; values outside default to
	// 0.05. Blocks of two descriptions are always kept.
	Fraction float64
}

// Name implements Processor.
func (p *SizePurge) Name() string { return "sizepurge" }

// Process implements Processor.
func (p *SizePurge) Process(bs *blocking.Blocks) *blocking.Blocks {
	frac := p.Fraction
	if frac <= 0 || frac > 1 {
		frac = 0.05
	}
	distinct := make(map[entity.ID]struct{})
	for _, b := range bs.All() {
		for _, id := range b.S0 {
			distinct[id] = struct{}{}
		}
		for _, id := range b.S1 {
			distinct[id] = struct{}{}
		}
	}
	limit := int(frac * float64(len(distinct)))
	if limit < 2 {
		limit = 2
	}
	out := blocking.NewBlocks(bs.Kind())
	for _, b := range bs.All() {
		if b.Size() <= limit {
			out.Add(b)
		}
	}
	return out
}

// BlockFiltering retains each description only in its Ratio·|blocks|
// smallest blocks (by comparison cardinality), then rebuilds the
// collection. Small blocks are the most selective evidence of a match;
// removing a description from its bloated blocks prunes low-value
// comparisons even when the blocks themselves survive purging.
type BlockFiltering struct {
	// Ratio is the fraction of each description's blocks to keep, in
	// (0,1]; values outside default to 0.8.
	Ratio float64
}

// Name implements Processor.
func (f *BlockFiltering) Name() string { return "filter" }

// Process implements Processor.
func (f *BlockFiltering) Process(bs *blocking.Blocks) *blocking.Blocks {
	ratio := f.Ratio
	if ratio <= 0 || ratio > 1 {
		ratio = 0.8
	}
	kind := bs.Kind()
	all := bs.All()
	// Order block indices by cardinality once; per-description keeps follow
	// this global order, so "smallest blocks first" is consistent.
	order := make([]int, len(all))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return all[order[i]].Comparisons(kind) < all[order[j]].Comparisons(kind)
	})
	rank := make([]int, len(all))
	for r, idx := range order {
		rank[idx] = r
	}
	// Collect each description's blocks sorted by rank and mark keepers.
	blocksOf := bs.BlocksOf()
	type key struct {
		id  entity.ID
		idx int
	}
	keep := make(map[key]struct{})
	for id, idxs := range blocksOf {
		sorted := append([]int(nil), idxs...)
		sort.Slice(sorted, func(i, j int) bool { return rank[sorted[i]] < rank[sorted[j]] })
		n := int(math.Ceil(ratio * float64(len(sorted))))
		if n < 1 {
			n = 1
		}
		for _, idx := range sorted[:n] {
			keep[key{id, idx}] = struct{}{}
		}
	}
	out := blocking.NewBlocks(kind)
	for idx, b := range all {
		nb := &blocking.Block{Key: b.Key}
		for _, id := range b.S0 {
			if _, ok := keep[key{id, idx}]; ok {
				nb.S0 = append(nb.S0, id)
			}
		}
		for _, id := range b.S1 {
			if _, ok := keep[key{id, idx}]; ok {
				nb.S1 = append(nb.S1, id)
			}
		}
		out.Add(nb)
	}
	return out
}

// Chain applies processors in order.
type Chain []Processor

// Name implements Processor.
func (c Chain) Name() string {
	s := "chain("
	for i, p := range c {
		if i > 0 {
			s += ","
		}
		s += p.Name()
	}
	return s + ")"
}

// Process implements Processor.
func (c Chain) Process(bs *blocking.Blocks) *blocking.Blocks {
	for _, p := range c {
		bs = p.Process(bs)
	}
	return bs
}
