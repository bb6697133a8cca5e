// Delta pruning: re-deriving WEP/WNP fates for only the edges that could
// have changed since the last reconcile, bit-exactly with a full
// PruneGraph pass.
//
// The full pruners (metablocking.go) rescan every edge on every call. The
// DeltaPruner instead rides a ChangeSet (changes.go) over the live
// WeightedGraph and maintains the pruning statistics — edge weights, the
// exact WEP global sum, the exact WNP per-node sums — incrementally. A
// Sync examines only the candidate set: edges whose statistics moved,
// edges whose weight expression depends on a moved statistic, and (for
// WEP) unchanged edges whose weight lies inside the inclusive band swept
// by the threshold between the old and new mean — provably the only
// untouched edges whose fate can flip. Because the sums are exact
// (exact.go, order-independent), the fate every candidate receives equals
// the fate the full pruner would assign, and non-candidates provably keep
// their previous fate — so the kept set after Apply is identical, edge for
// edge and bit for bit, to PruneGraph over a fresh materialization.
//
// Candidate expansion per weight scheme:
//
//   - CBS: an edge's weight is its own common-block count — dirty pairs
//     suffice.
//   - JS: the weight also divides by both endpoints' block counts — dirty
//     pairs plus every edge incident to a dirty node.
//   - ECBS: the weight additionally multiplies by log(|B|/|B_x|); when the
//     total block count changed, every weight in the graph moves and the
//     sync degrades to a full re-derive (still bit-exact; accepted
//     degradation), otherwise it expands like JS.
//
// And per prune scheme:
//
//   - WEP: the global mean moves only when the sum or edge count does; an
//     untouched edge flips only if its weight lies in [min(thr,thr'),
//     max(thr,thr')], found via a bucketed weight index in time
//     proportional to the band.
//   - WNP: a node's local mean moves only when an incident edge's weight
//     or its degree changed; the (conservative) band is the full
//     neighborhood of every such node — already delta-proportional, so no
//     index is kept.
//
// Adjacency is mirrored only where the scheme reads it: JS and ECBS expand
// dirty nodes to their incident edges and WNP reads degrees and
// neighborhoods, while CBS with WEP needs neither, so its pruner keeps no
// adjacency at all.
//
// Sync/Apply are split for cancellation safety: Sync commits the pure
// statistics (weights, sums, thresholds, adjacency — all re-derivable from
// the graph) but never the kept set. The caller evaluates the returned
// refates (matcher calls may fail mid-way) and either Apply-s them,
// committing the fate flips, or Requeue-s them, returning the pairs to the
// pending log so the next Sync re-derives the same refates against the
// unchanged kept set.
package metablocking

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"entityres/internal/entity"
	"entityres/internal/graph"
)

// Refate is one candidate edge's re-derived pruning fate. Sync returns
// only consequential refates: those kept now or kept before (an edge both
// out before and out now changes nothing downstream).
type Refate struct {
	Pair entity.Pair
	// Weight is the edge's current weight; meaningless when !InGraph.
	Weight float64
	// InGraph reports whether the pair still co-occurs at all.
	InGraph bool
	// WasKept is the fate before this sync, Kept the fate after.
	WasKept, Kept bool
}

// DeltaPruner maintains WEP/WNP pruning fates incrementally over a live
// WeightedGraph. Not safe for concurrent use; the streaming resolver
// serializes reconciles.
type DeltaPruner struct {
	wg  *WeightedGraph
	m   MetaBlocker
	log *ChangeSet

	// Mirror of the graph's edge weights as of the last Sync.
	weights map[entity.Pair]float64
	// adj is the adjacency over the mirrored edges, kept only for the
	// schemes that read it (JS and ECBS candidate expansion, WNP degrees
	// and neighborhoods); nil under CBS with WEP, where link and unlink do
	// nothing.
	adj map[entity.ID]map[entity.ID]struct{}
	// kept is the committed fate set, pair → weight at commit time. Once
	// a streaming resolver has created its pruner this map is that
	// resolver's kept set; KeptEdges materializes it only for cold readers.
	kept map[entity.Pair]float64

	// WEP state: exact global sum, last threshold, bucketed weight index.
	sum   exactSum
	thr   float64
	index weightIndex

	// WNP state: exact per-node sums and last per-node thresholds.
	nodeSum map[entity.ID]*exactSum
	nodeThr map[entity.ID]float64

	examined int64
}

// NewDeltaPruner registers a pruner on wg. The configuration must satisfy
// ValidateStreaming (the resolver checks at construction); everything
// currently in the graph is pending, so the first Sync is a full derive.
func NewDeltaPruner(wg *WeightedGraph, m MetaBlocker) *DeltaPruner {
	if err := m.ValidateStreaming(); err != nil {
		panic(err)
	}
	p := &DeltaPruner{
		wg:      wg,
		m:       m,
		log:     wg.Track(),
		weights: make(map[entity.Pair]float64),
		kept:    make(map[entity.Pair]float64),
	}
	if m.Weight != CBS || m.Prune == WNP {
		p.adj = make(map[entity.ID]map[entity.ID]struct{})
	}
	if m.Prune == WNP {
		p.nodeSum = make(map[entity.ID]*exactSum)
		p.nodeThr = make(map[entity.ID]float64)
	} else {
		p.index.buckets = make(map[uint64]map[entity.Pair]struct{})
	}
	for pr := range wg.pairs {
		p.log.pairs[pr] = struct{}{}
	}
	return p
}

// Seed declares the previously committed kept set — restoring a snapshot
// or adopting bootstrapped match edges — and schedules every seeded pair
// for re-examination, so the first Sync diffs the fresh derivation against
// this baseline exactly like the old full reconcile diffed against its
// remembered kept list. Seeded pairs absent from the graph surface as
// removal refates (stale-edge cleanup).
func (p *DeltaPruner) Seed(kept []graph.Edge) {
	for _, e := range kept {
		pr := entity.NewPair(e.A, e.B)
		p.kept[pr] = e.Weight
		p.log.pairs[pr] = struct{}{}
	}
}

// Sync folds the pending graph changes into the pruning statistics and
// returns the consequential refates, sorted by pair. It does NOT commit
// the fates — call Apply after acting on them, or Requeue on failure.
func (p *DeltaPruner) Sync() []Refate {
	pairs, nodes, blocksChanged := p.log.drain()
	if len(pairs) == 0 && len(nodes) == 0 && !blocksChanged {
		return nil
	}
	dirty := pairs

	// Expand to edges whose weight expression depends on a moved statistic.
	switch p.m.Weight {
	case CBS:
		// Weight is the pair's own count; dirty pairs suffice.
	case ECBS:
		if blocksChanged {
			// log(|B|/|B_x|) moved for every edge: full re-derive.
			for pr := range p.weights {
				dirty[pr] = struct{}{}
			}
			break
		}
		fallthrough
	case JS:
		for id := range nodes {
			for nb := range p.adj[id] {
				dirty[entity.NewPair(id, nb)] = struct{}{}
			}
		}
	}

	// Recompute the dirty weights, maintaining sums, index and adjacency.
	wnp := p.m.Prune == WNP
	var moved map[entity.ID]struct{}
	if wnp {
		moved = make(map[entity.ID]struct{})
	}
	sumsChanged := false
	touch := func(pr entity.Pair) {
		sumsChanged = true
		if wnp {
			moved[pr.A] = struct{}{}
			moved[pr.B] = struct{}{}
		}
	}
	for pr := range dirty {
		oldW, had := p.weights[pr]
		st, in := p.wg.pairs[pr]
		switch {
		case in:
			newW := p.wg.weightOf(pr, st, p.m.Weight)
			if had && newW == oldW {
				continue
			}
			if had {
				p.dropWeight(pr, oldW)
			} else {
				p.link(pr)
			}
			p.putWeight(pr, newW)
			p.weights[pr] = newW
			touch(pr)
		case had:
			p.dropWeight(pr, oldW)
			p.unlink(pr)
			delete(p.weights, pr)
			touch(pr)
		}
	}

	// Move the thresholds and pull in the untouched edges inside the band.
	n := len(p.weights)
	if wnp {
		for id := range moved {
			if len(p.adj[id]) == 0 {
				delete(p.nodeSum, id)
				delete(p.nodeThr, id)
				continue
			}
			p.nodeThr[id] = p.nodeSum[id].Mean(len(p.adj[id]))
			// The node's whole neighborhood is the (conservative) band.
			for nb := range p.adj[id] {
				dirty[entity.NewPair(id, nb)] = struct{}{}
			}
		}
	} else {
		oldThr := p.thr
		if n == 0 {
			p.thr = 0
		} else {
			p.thr = p.sum.Mean(n)
		}
		if sumsChanged && p.thr != oldThr {
			lo, hi := oldThr, p.thr
			if lo > hi {
				lo, hi = hi, lo
			}
			p.index.eachInBand(lo, hi, p.weights, func(pr entity.Pair) {
				dirty[pr] = struct{}{}
			})
		}
	}

	// Re-derive every candidate's fate against the new thresholds.
	refates := make([]Refate, 0, len(dirty))
	var tieKeep, tieValid bool
	for pr := range dirty {
		p.examined++
		w, in := p.weights[pr]
		_, wasKept := p.kept[pr]
		kept := false
		if in {
			if wnp {
				kept = p.keepWNP(pr, w)
			} else {
				kept = p.keepWEP(w, n, &tieKeep, &tieValid)
			}
		}
		if wasKept || kept {
			refates = append(refates, Refate{Pair: pr, Weight: w, InGraph: in, WasKept: wasKept, Kept: kept})
		}
	}
	slices.SortFunc(refates, func(x, y Refate) int { return pairOrder(x.Pair, y.Pair) })
	return refates
}

// Apply commits the refates' fates to the kept set.
func (p *DeltaPruner) Apply(refates []Refate) {
	for _, f := range refates {
		if f.Kept {
			p.kept[f.Pair] = f.Weight
		} else {
			delete(p.kept, f.Pair)
		}
	}
}

// Requeue returns the refates' pairs to the pending log after the caller
// failed to act on them (a cancelled or failed evaluation), so the next
// Sync re-derives the same fates against the unchanged kept set.
func (p *DeltaPruner) Requeue(refates []Refate) {
	for _, f := range refates {
		p.log.pairs[f.Pair] = struct{}{}
	}
}

// KeptCount returns the size of the committed kept set.
func (p *DeltaPruner) KeptCount() int { return len(p.kept) }

// KeptEdges returns the committed kept set as a fresh slice of edges
// sorted by pair — the same set a full PruneGraph over the current graph
// would retain (after the pending changes are synced and applied). It
// costs the whole set, so it serves cold readers only; KeptCount sizes the
// set without it.
func (p *DeltaPruner) KeptEdges() []graph.Edge {
	out := make([]graph.Edge, 0, len(p.kept))
	for pr, w := range p.kept {
		out = append(out, graph.Edge{A: pr.A, B: pr.B, Weight: w})
	}
	slices.SortFunc(out, func(x, y graph.Edge) int {
		return pairOrder(entity.Pair{A: x.A, B: x.B}, entity.Pair{A: y.A, B: y.B})
	})
	return out
}

// pairOrder orders pairs by A, then B: the order of Sync's refates and of
// KeptEdges.
func pairOrder(x, y entity.Pair) int {
	if c := cmp.Compare(x.A, y.A); c != 0 {
		return c
	}
	return cmp.Compare(x.B, y.B)
}

// Examined returns the cumulative number of candidate fate derivations —
// the delta-proportional work metric the benchmarks report.
func (p *DeltaPruner) Examined() int64 { return p.examined }

// Pending reports whether changes await the next Sync.
func (p *DeltaPruner) Pending() bool { return !p.log.Empty() }

func (p *DeltaPruner) keepWEP(w float64, n int, tieKeep, tieValid *bool) bool {
	if w > p.thr {
		return true
	}
	if w < p.thr {
		return false
	}
	// All ties this sync share one exact verdict; derive it once.
	if !*tieValid {
		*tieKeep = p.sum.atLeastMean(w, n)
		*tieValid = true
	}
	return *tieKeep
}

func (p *DeltaPruner) keepWNP(pr entity.Pair, w float64) bool {
	inA := p.keepNode(pr.A, w)
	inB := p.keepNode(pr.B, w)
	if p.m.Reciprocal {
		return inA && inB
	}
	return inA || inB
}

func (p *DeltaPruner) keepNode(id entity.ID, w float64) bool {
	// id has at least this incident edge, so its sum and threshold exist.
	return p.nodeSum[id].keepAtLeastMean(w, p.nodeThr[id], len(p.adj[id]))
}

func (p *DeltaPruner) putWeight(pr entity.Pair, w float64) {
	if p.m.Prune == WNP {
		p.nodeAcc(pr.A).Add(w)
		p.nodeAcc(pr.B).Add(w)
		return
	}
	p.sum.Add(w)
	p.index.add(pr, w)
}

func (p *DeltaPruner) dropWeight(pr entity.Pair, w float64) {
	if p.m.Prune == WNP {
		p.nodeAcc(pr.A).Sub(w)
		p.nodeAcc(pr.B).Sub(w)
		return
	}
	p.sum.Sub(w)
	p.index.remove(pr, w)
}

func (p *DeltaPruner) nodeAcc(id entity.ID) *exactSum {
	s, ok := p.nodeSum[id]
	if !ok {
		s = &exactSum{}
		p.nodeSum[id] = s
	}
	return s
}

func (p *DeltaPruner) link(pr entity.Pair) {
	if p.adj == nil {
		return
	}
	p.halfLink(pr.A, pr.B)
	p.halfLink(pr.B, pr.A)
}

func (p *DeltaPruner) halfLink(a, b entity.ID) {
	ns, ok := p.adj[a]
	if !ok {
		ns = make(map[entity.ID]struct{})
		p.adj[a] = ns
	}
	ns[b] = struct{}{}
}

func (p *DeltaPruner) unlink(pr entity.Pair) {
	if p.adj == nil {
		return
	}
	p.halfUnlink(pr.A, pr.B)
	p.halfUnlink(pr.B, pr.A)
}

func (p *DeltaPruner) halfUnlink(a, b entity.ID) {
	ns := p.adj[a]
	delete(ns, b)
	if len(ns) == 0 {
		delete(p.adj, a)
	}
}

// weightIndex buckets edges by the high bits of their weight's IEEE-754
// representation. For non-negative floats the bit pattern orders like the
// value, so a weight band maps to a contiguous bucket-key range that can
// be stepped through in time proportional to its width.
type weightIndex struct {
	buckets map[uint64]map[entity.Pair]struct{}
}

// bucketShift keeps the top 24 bits (sign, exponent, 12 mantissa bits):
// ~4096 buckets per power of two, so typical threshold movements span few
// buckets.
const bucketShift = 40

// maxBandBuckets caps the stepped range; a band wider than this falls back
// to one full scan of the mirrored weights (correct, just not
// delta-proportional).
const maxBandBuckets = 1 << 12

func bucketOf(w float64) uint64 { return math.Float64bits(w) >> bucketShift }

func (ix *weightIndex) add(pr entity.Pair, w float64) {
	k := bucketOf(w)
	b, ok := ix.buckets[k]
	if !ok {
		b = make(map[entity.Pair]struct{})
		ix.buckets[k] = b
	}
	b[pr] = struct{}{}
}

func (ix *weightIndex) remove(pr entity.Pair, w float64) {
	k := bucketOf(w)
	b, ok := ix.buckets[k]
	if !ok {
		panic(fmt.Sprintf("metablocking: weight index missing bucket %#x for pair (%d,%d)", k, pr.A, pr.B))
	}
	delete(b, pr)
	if len(b) == 0 {
		delete(ix.buckets, k)
	}
}

// eachInBand visits every indexed pair whose weight could lie in the
// inclusive band [lo, hi]. Bucket members slightly outside the band are
// visited too — harmless extra candidates whose fates re-derive unchanged.
func (ix *weightIndex) eachInBand(lo, hi float64, weights map[entity.Pair]float64, fn func(entity.Pair)) {
	kLo, kHi := bucketOf(lo), bucketOf(hi)
	if kHi-kLo >= maxBandBuckets {
		for pr, w := range weights {
			if w >= lo && w <= hi {
				fn(pr)
			}
		}
		return
	}
	for k := kLo; k <= kHi; k++ {
		for pr := range ix.buckets[k] {
			fn(pr)
		}
	}
}
