package metablocking

import (
	"fmt"
	"math"

	"entityres/internal/blocking"
	"entityres/internal/entity"
	"entityres/internal/graph"
)

// stats carries the co-occurrence statistics of one graph edge.
type stats struct {
	cbs  int
	arcs float64
}

// WeightedGraph is the incrementally-maintained core of the weighted
// blocking graph: the per-pair and per-node co-occurrence statistics every
// weighting scheme is computed from. It supports two maintenance regimes
// that produce identical counts for the same live membership:
//
//   - batch accumulation (FromBlocks / AccumulateBlock / Merge), one whole
//     block at a time — the regime of BuildGraph;
//   - per-document deltas (AddDocument / RemoveDocument), keyed off
//     blocking.BlockIndex membership changes — the regime of the streaming
//     resolver, which registers the graph as a membership observer so every
//     insert, update and delete adjusts exactly the statistics the changed
//     description touches.
//
// The counting statistics (common-block counts, blocks per description,
// number of comparison-suggesting blocks, pair degrees) are integers, so
// the weights derived from them — CBS, ECBS, JS, EJS — are bit-identical
// across regimes. ARCS sums floating-point reciprocal comparison masses
// whose per-block denominators change whenever a block grows or shrinks;
// that mass is not decomposable into per-pair deltas, so it is only
// accumulated by the batch regime (AddDocument/RemoveDocument leave it
// zero, and streaming validation rejects ARCS).
//
// A block contributes to the statistics only while it suggests at least
// one comparison (two members when dirty; a member on each side when
// clean-clean) — mirroring blocking.Blocks.Add, which drops
// comparison-free blocks from batch collections. The delta maintenance
// therefore credits a whole block the moment a new member makes it
// comparison-suggesting, and debits it the moment a leaving member makes
// it comparison-free.
//
// A WeightedGraph is not safe for concurrent mutation; the streaming
// resolver serializes operations. Batch restructuring does not build one
// at all: RestructureParallel derives the same statistics node by node.
type WeightedGraph struct {
	kind      entity.Kind
	pairs     map[entity.Pair]*stats
	blocksPer map[entity.ID]int
	numBlocks int
	// trackers receive every statistic mutation (see changes.go); every
	// mutating path below must funnel through ensure/bump/debit/credit/
	// addBlocks or mark explicitly, or registered change sets go stale.
	trackers []*ChangeSet
}

// NewWeightedGraph returns an empty weighted blocking graph for the given
// resolution setting.
func NewWeightedGraph(kind entity.Kind) *WeightedGraph {
	return &WeightedGraph{
		kind:      kind,
		pairs:     make(map[entity.Pair]*stats),
		blocksPer: make(map[entity.ID]int),
	}
}

// FromBlocks accumulates the co-occurrence statistics of a whole block
// collection — the batch construction BuildGraph weights.
func FromBlocks(bs *blocking.Blocks) *WeightedGraph {
	wg := NewWeightedGraph(bs.Kind())
	for _, b := range bs.All() {
		wg.AccumulateBlock(b)
	}
	return wg
}

// Kind returns the resolution setting of the graph.
func (wg *WeightedGraph) Kind() entity.Kind { return wg.kind }

// NumBlocks returns the number of accumulated comparison-suggesting blocks.
func (wg *WeightedGraph) NumBlocks() int { return wg.numBlocks }

// NumPairs returns the number of distinct co-occurring pairs (graph edges).
func (wg *WeightedGraph) NumPairs() int { return len(wg.pairs) }

// CommonBlocks returns the CBS count of the pair — the number of blocks its
// endpoints share — or 0 when the endpoints never co-occur.
func (wg *WeightedGraph) CommonBlocks(p entity.Pair) int {
	if st, ok := wg.pairs[p]; ok {
		return st.cbs
	}
	return 0
}

// BlockCount returns the number of comparison-suggesting blocks containing
// the description.
func (wg *WeightedGraph) BlockCount(id entity.ID) int { return wg.blocksPer[id] }

// EachPair enumerates the co-occurring pairs and their CBS counts in
// unspecified order, stopping early if fn returns false.
func (wg *WeightedGraph) EachPair(fn func(p entity.Pair, cbs int) bool) {
	for p, st := range wg.pairs {
		if !fn(p, st.cbs) {
			return
		}
	}
}

// AccumulateBlock folds one whole block into the statistics: every member
// is credited with a block appearance and every suggested comparison bumps
// its pair's common-block count and reciprocal comparison mass. This is
// the batch accumulation step of FromBlocks.
func (wg *WeightedGraph) AccumulateBlock(b *blocking.Block) {
	comp := b.Comparisons(wg.kind)
	wg.addBlocks(1)
	for _, id := range b.S0 {
		wg.credit(id)
	}
	for _, id := range b.S1 {
		wg.credit(id)
	}
	b.EachComparison(wg.kind, func(x, y entity.ID) bool {
		st := wg.ensure(entity.NewPair(x, y))
		st.cbs++
		st.arcs += 1 / float64(comp)
		return true
	})
}

// Merge folds another graph's statistics into wg. ARCS masses add in the
// order of the merges, so partials merged in block order sum
// deterministically.
func (wg *WeightedGraph) Merge(o *WeightedGraph) {
	if o.numBlocks != 0 {
		wg.addBlocks(o.numBlocks)
	}
	for id, n := range o.blocksPer {
		wg.blocksPer[id] += n
		wg.markNode(id)
	}
	for p, st := range o.pairs {
		wg.markPair(p)
		dst, ok := wg.pairs[p]
		if !ok {
			// Copy the stats rather than adopting o's pointer: the graphs
			// must stay independent after the merge, or a later mutation of
			// either would silently corrupt the other.
			wg.pairs[p] = &stats{cbs: st.cbs, arcs: st.arcs}
			continue
		}
		dst.cbs += st.cbs
		dst.arcs += st.arcs
	}
}

// AddDocument applies the delta of one description entering the block
// index: for each of its keys, the description is credited against the
// block's other live members. It implements blocking.MembershipObserver,
// so a BlockIndex keeps the graph current via Observe. ARCS mass is not
// maintained (see the type comment).
func (wg *WeightedGraph) AddDocument(bi *blocking.BlockIndex, id entity.ID, source int, keys []string) {
	var same, opp []entity.ID
	for _, k := range keys {
		same, opp = wg.partition(bi, k, id, source, same[:0], opp[:0])
		// Without a comparison partner the block suggests nothing even with
		// id aboard (a singleton when dirty, a one-sided block when
		// clean-clean) and stays outside the statistics.
		if len(opp) == 0 {
			continue
		}
		// A block contributes only while it suggests comparisons. If it did
		// not before id joined, id's arrival springs it into existence and
		// every prior member earns its block appearance now.
		if !wg.suggests(len(same), len(opp)) {
			wg.addBlocks(1)
			for _, m := range same {
				wg.credit(m)
			}
			for _, m := range opp {
				wg.credit(m)
			}
		}
		wg.credit(id)
		for _, m := range opp {
			wg.ensure(entity.NewPair(id, m)).cbs++
		}
	}
}

// RemoveDocument applies the inverse delta of one description leaving the
// block index. It must be invoked while the index still holds the
// description (blocking.MembershipObserver's contract).
func (wg *WeightedGraph) RemoveDocument(bi *blocking.BlockIndex, id entity.ID, source int, keys []string) {
	var same, opp []entity.ID
	for _, k := range keys {
		same, opp = wg.partition(bi, k, id, source, same[:0], opp[:0])
		if len(opp) == 0 {
			continue
		}
		for _, m := range opp {
			wg.bump(entity.NewPair(id, m), -1)
		}
		wg.debit(id)
		// If the remaining members no longer suggest a comparison the block
		// drops out of the statistics entirely.
		if !wg.suggests(len(same), len(opp)) {
			wg.addBlocks(-1)
			for _, m := range same {
				wg.debit(m)
			}
			for _, m := range opp {
				wg.debit(m)
			}
		}
	}
}

// partition splits the other live members of key into id's own side and
// the comparison side: for clean-clean, same/opposite source; for dirty,
// every other member is a comparison partner. The scratch slices are
// reused across keys.
func (wg *WeightedGraph) partition(bi *blocking.BlockIndex, key string, id entity.ID, source int, same, opp []entity.ID) ([]entity.ID, []entity.ID) {
	for _, p := range bi.Postings(key) {
		if p.Doc == id {
			continue
		}
		if ms, _ := bi.SourceOf(p.Doc); wg.kind == entity.CleanClean && ms == source {
			same = append(same, p.Doc)
		} else {
			opp = append(opp, p.Doc)
		}
	}
	return same, opp
}

// suggests reports whether a block whose other members split into
// nSame/nOpp suggests at least one comparison WITHOUT the observed
// description: two members when dirty, one on each side when clean-clean.
func (wg *WeightedGraph) suggests(nSame, nOpp int) bool {
	if wg.kind == entity.CleanClean {
		return nSame >= 1 && nOpp >= 1
	}
	return nSame+nOpp >= 2
}

// ensure returns the pair's statistics, creating them if absent. Callers
// mutate the returned stats, so the pair is marked dirty here.
func (wg *WeightedGraph) ensure(p entity.Pair) *stats {
	wg.markPair(p)
	st, ok := wg.pairs[p]
	if !ok {
		st = &stats{}
		wg.pairs[p] = st
	}
	return st
}

// bump adjusts a pair's common-block count, dropping the pair when its
// last shared block is gone.
func (wg *WeightedGraph) bump(p entity.Pair, delta int) {
	st, ok := wg.pairs[p]
	if !ok {
		if delta <= 0 {
			return
		}
		st = &stats{}
		wg.pairs[p] = st
	}
	wg.markPair(p)
	st.cbs += delta
	if st.cbs <= 0 {
		delete(wg.pairs, p)
	}
}

// credit adds one block appearance to the description.
func (wg *WeightedGraph) credit(id entity.ID) {
	wg.blocksPer[id]++
	wg.markNode(id)
}

// debit removes one block appearance from the description, dropping the
// entry when none remain.
func (wg *WeightedGraph) debit(id entity.ID) {
	wg.markNode(id)
	wg.blocksPer[id]--
	if wg.blocksPer[id] <= 0 {
		delete(wg.blocksPer, id)
	}
}

// addBlocks adjusts the comparison-suggesting block count.
func (wg *WeightedGraph) addBlocks(delta int) {
	wg.numBlocks += delta
	wg.markBlocks()
}

// Graph materializes the weighted blocking graph under the given scheme —
// the scheme-dependent weighting tail shared by the sequential batch
// build, the sharded batch build and the streaming resolver's live
// pruning. Weights for the counting schemes are bit-identical regardless
// of how the statistics were maintained.
func (wg *WeightedGraph) Graph(scheme WeightScheme) *graph.Graph {
	// Degrees: number of distinct co-occurring partners per description.
	degree := make(map[entity.ID]int)
	for p := range wg.pairs {
		degree[p.A]++
		degree[p.B]++
	}
	numEdges := float64(len(wg.pairs))
	g := graph.New()
	for p, st := range wg.pairs {
		var w float64
		switch scheme {
		case CBS, ECBS, JS:
			w = wg.weightOf(p, st, scheme)
		case EJS:
			w = js(st.cbs, wg.blocksPer[p.A], wg.blocksPer[p.B]) *
				math.Log(numEdges/float64(degree[p.A])) *
				math.Log(numEdges/float64(degree[p.B]))
		case ARCS:
			w = st.arcs
		}
		g.SetWeight(p.A, p.B, w)
	}
	return g
}

// weightOf computes one pair's weight under the streaming-safe counting
// schemes from the current statistics — the exact expression Graph
// evaluates, factored out so the delta pruner recomputes individual edges
// bit-identically to a full materialization.
func (wg *WeightedGraph) weightOf(p entity.Pair, st *stats, scheme WeightScheme) float64 {
	switch scheme {
	case CBS:
		return float64(st.cbs)
	case ECBS:
		numBlocks := float64(wg.numBlocks)
		return float64(st.cbs) *
			math.Log(numBlocks/float64(wg.blocksPer[p.A])) *
			math.Log(numBlocks/float64(wg.blocksPer[p.B]))
	case JS:
		return js(st.cbs, wg.blocksPer[p.A], wg.blocksPer[p.B])
	}
	panic(fmt.Sprintf("metablocking: weightOf does not support scheme %v", scheme))
}

// ValidateStreaming reports whether the meta-blocker configuration can run
// under the incremental resolver's live weighting and pruning. Stream-safe
// are the counting weight schemes (CBS, ECBS, JS) crossed with the
// weight-threshold pruning schemes (WEP, WNP — Reciprocal included); the
// rest are batch-only, each for a structural reason the error spells out.
func (m *MetaBlocker) ValidateStreaming() error {
	switch m.Weight {
	case CBS, ECBS, JS:
	case EJS:
		return fmt.Errorf("metablocking: EJS weighting cannot stream: its degree discount log(|E|/deg) drifts with every arrival")
	case ARCS:
		return fmt.Errorf("metablocking: ARCS weighting cannot stream: per-block reciprocal comparison mass is not decomposable into per-pair deltas")
	default:
		return fmt.Errorf("metablocking: unknown weight scheme %v", m.Weight)
	}
	switch m.Prune {
	case WEP, WNP:
	case CEP, CNP:
		return fmt.Errorf("metablocking: %s pruning cannot stream: its cardinality budget is derived from the whole block collection (batch-only)", m.Prune)
	default:
		return fmt.Errorf("metablocking: unknown prune scheme %v", m.Prune)
	}
	return nil
}
