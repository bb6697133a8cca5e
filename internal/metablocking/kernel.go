package metablocking

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"entityres/internal/blocking"
	"entityres/internal/entity"
	"entityres/internal/graph"
)

// RestructureParallel is Restructure with the weighting and pruning spread
// over workers (<= 0 means GOMAXPROCS). The output does not depend on the
// worker count or the schedule: it equals
// EmitKept(c, bs.Kind(), m.PruneGraph(BuildGraph(bs, m.Weight), bs)) block
// for block, ARCS included.
//
// The batch path never materializes the blocking graph. It follows the
// node-centric formulation of the meta-blocking survey: a CSR entity index
// lists each record's blocks in ascending order, and one flat counter
// array per worker accumulates a record's whole neighbourhood (common
// blocks, distinct degree and, for ARCS, the reciprocal comparison mass in
// block order, so every pair sums its terms in the order the sequential
// accumulation does). Weights use the expressions of WeightedGraph.Graph,
// and every pruning scheme decides an edge from per-record figures
// gathered in one earlier pass: neighbourhood means for WNP, k-th cutoffs
// for CNP, the exact global mean for WEP; CEP sorts all edges. Block
// collections outside the entity index's domain (see blocking.IndexBlocks)
// and unknown schemes take the graph path instead.
func (m *MetaBlocker) RestructureParallel(c *entity.Collection, bs *blocking.Blocks, workers int) *blocking.Blocks {
	kept, ok := m.keptEdges(bs, workers)
	if !ok {
		kept = m.PruneGraph(BuildGraph(bs, m.Weight), bs)
	}
	return EmitKept(c, bs.Kind(), kept)
}

// kernel evaluates one MetaBlocker configuration over an entity index.
type kernel struct {
	*blocking.EntityIndex
	weight WeightScheme
	// fac is the per-record log factor: log(|B|/|B_i|) for ECBS,
	// log(|E|/deg_i) for EJS.
	fac []float64
	// inv is the per-block ARCS term 1/||b||.
	inv []float64
	// work holds one scratch per worker; each claims chunk records at a
	// time.
	work  []*scratch
	chunk int
}

// scratch is one worker's flat neighbourhood state. cbs[j] is zero for
// every record outside the neighbourhood being walked.
type scratch struct {
	cbs     []int32
	arcs    []float64
	touched []int32
	ranked  []graph.Edge // CNP: a record's neighbourhood, best first
	kept    []graph.Edge
	fixed   fixedSum
	sum     exactSum
	// edges is the worker's first-pass count: edges for WEP, edge ends for
	// WNP, top-k entries for CNP.
	edges int
}

// maxChunk caps the number of consecutive records a worker claims at a
// time.
const maxChunk = 64

// keptEdges computes the edges PruneGraph keeps on the blocking graph of
// bs, node-centrically. It reports false, having done nothing, for block
// collections and schemes outside the kernel's domain.
func (m *MetaBlocker) keptEdges(bs *blocking.Blocks, workers int) ([]graph.Edge, bool) {
	if m.Weight < CBS || m.Weight > ARCS || m.Prune < WEP || m.Prune > CNP {
		return nil, false
	}
	ix, ok := blocking.IndexBlocks(bs)
	if !ok {
		return nil, false
	}
	n := ix.Records()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, n))
	k := &kernel{EntityIndex: ix, weight: m.Weight, work: make([]*scratch, workers),
		chunk: max(1, min(maxChunk, n/(4*workers)))}
	for w := range k.work {
		s := &scratch{cbs: make([]int32, n)}
		if m.Weight == ARCS {
			s.arcs = make([]float64, n)
		}
		k.work[w] = s
	}
	switch m.Weight {
	case ECBS:
		nb := float64(len(ix.Blocks))
		k.fac = make([]float64, n)
		for i := range k.fac {
			if bp := ix.BlocksPer(i); bp > 0 {
				k.fac[i] = math.Log(nb / float64(bp))
			}
		}
	case EJS:
		k.fac = k.degreeFactors()
	case ARCS:
		k.inv = make([]float64, len(ix.Blocks))
		for b, blk := range ix.Blocks {
			k.inv[b] = 1 / float64(blk.Comparisons(bs.Kind()))
		}
	}
	switch m.Prune {
	case WEP:
		return k.wep(), true
	case CEP:
		return k.cep(m.cepBudget(len(ix.Blk))), true
	case WNP:
		return k.wnp(m.Reciprocal), true
	default:
		// In the kernel's domain every block member has a partner, so the
		// graph's nodes are the records with a block.
		nodes := 0
		for i := 0; i < n; i++ {
			if ix.BlocksPer(i) > 0 {
				nodes++
			}
		}
		return k.cnp(cnpK(len(ix.Blk), nodes), m.Reciprocal), true
	}
}

// perWorker runs fn once per worker, concurrently, on its scratch.
func (k *kernel) perWorker(fn func(s *scratch)) {
	if len(k.work) == 1 {
		fn(k.work[0])
		return
	}
	var wg sync.WaitGroup
	for _, s := range k.work {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(s)
		}()
	}
	wg.Wait()
}

// each runs fn on every record, the workers claiming chunks of records
// until none are left.
func (k *kernel) each(fn func(s *scratch, i int)) {
	n := k.Records()
	var next atomic.Int64
	k.perWorker(func(s *scratch) {
		for {
			lo := int(next.Add(int64(k.chunk))) - k.chunk
			if lo >= n {
				return
			}
			for i := lo; i < min(lo+k.chunk, n); i++ {
				fn(s, i)
			}
		}
	})
}

// edgeOrder ranks edges best first: descending weight, then ascending
// (A, B). It is the order of CEP's top K and of EmitKept.
func edgeOrder(x, y graph.Edge) int {
	switch {
	case x.Weight > y.Weight:
		return -1
	case x.Weight < y.Weight:
		return 1
	case x.A != y.A:
		return cmp.Compare(x.A, y.A)
	default:
		return cmp.Compare(x.B, y.B)
	}
}

// gather sorts every worker's kept edges by edgeOrder, the workers in
// parallel, and merges them into one sorted slice, so that EmitKept's sort
// meets sorted input.
func (k *kernel) gather() []graph.Edge {
	k.perWorker(func(s *scratch) { slices.SortFunc(s.kept, edgeOrder) })
	if len(k.work) == 1 {
		return k.work[0].kept
	}
	runs := make([][]graph.Edge, 0, len(k.work))
	n := 0
	for _, s := range k.work {
		runs = append(runs, s.kept)
		n += len(s.kept)
	}
	kept := make([]graph.Edge, 0, n)
	for len(kept) < n {
		best := -1
		for r, run := range runs {
			if len(run) > 0 && (best < 0 || edgeOrder(run[0], runs[best][0]) < 0) {
				best = r
			}
		}
		kept = append(kept, runs[best][0])
		runs[best] = runs[best][1:]
	}
	return kept
}

// neighbours walks record i's blocks and returns its distinct comparison
// partners j > above (all of them for above = -1), with their common-block
// counts in s.cbs and, for ARCS, their reciprocal mass in s.arcs. The
// caller must release the neighbourhood before walking the next one.
func (k *kernel) neighbours(s *scratch, i, above int) []int32 {
	s.touched = s.touched[:0]
	for _, b := range k.BlocksOf(i) {
		partners := k.Partners(i, b)
		if s.arcs == nil {
			for _, j := range partners {
				if j <= above || j == i {
					continue
				}
				if s.cbs[j] == 0 {
					s.touched = append(s.touched, int32(j))
				}
				s.cbs[j]++
			}
			continue
		}
		inv := k.inv[b]
		for _, j := range partners {
			if j <= above || j == i {
				continue
			}
			if s.cbs[j] == 0 {
				s.touched = append(s.touched, int32(j))
				s.arcs[j] = 0
			}
			s.cbs[j]++
			s.arcs[j] += inv
		}
	}
	return s.touched
}

// release clears the counters of the neighbourhood last walked.
func (s *scratch) release() {
	for _, j := range s.touched {
		s.cbs[j] = 0
	}
}

// weightOf returns the weight of edge {i, j} for a neighbour j of the
// neighbourhood just walked: the expression of WeightedGraph.Graph,
// evaluated in A < B order so the float result is the same.
func (k *kernel) weightOf(s *scratch, i, j int) float64 {
	a, b := i, j
	if a > b {
		a, b = b, a
	}
	switch k.weight {
	case CBS:
		return float64(s.cbs[j])
	case ECBS:
		return float64(s.cbs[j]) * k.fac[a] * k.fac[b]
	case JS:
		return js(int(s.cbs[j]), k.BlocksPer(a), k.BlocksPer(b))
	case EJS:
		return js(int(s.cbs[j]), k.BlocksPer(a), k.BlocksPer(b)) * k.fac[a] * k.fac[b]
	default:
		return s.arcs[j]
	}
}

// degreeFactors counts every record's distinct neighbours and returns the
// EJS factors log(|E|/deg_i).
func (k *kernel) degreeFactors() []float64 {
	deg := make([]int32, k.Records())
	k.each(func(s *scratch, i int) {
		deg[i] = int32(len(k.neighbours(s, i, -1)))
		s.release()
	})
	ends := 0
	for _, d := range deg {
		ends += int(d)
	}
	numEdges := float64(ends / 2)
	fac := make([]float64, len(deg))
	for i, d := range deg {
		if d > 0 {
			fac[i] = math.Log(numEdges / float64(d))
		}
	}
	return fac
}

// counted sums the workers' first-pass edge counts.
func (k *kernel) counted() int {
	n := 0
	for _, s := range k.work {
		n += s.edges
	}
	return n
}

// keep walks every record's upper neighbourhood and collects the edges
// {i, j}, i < j, that fate keeps. Each worker reserves its share of bound,
// an upper bound on the kept edges, or 0 when there is none worth
// reserving.
func (k *kernel) keep(bound int, fate func(i, j int, w float64) bool) []graph.Edge {
	k.perWorker(func(s *scratch) { s.kept = make([]graph.Edge, 0, bound/len(k.work)) })
	k.each(func(s *scratch, i int) {
		for _, j := range k.neighbours(s, i, i) {
			if w := k.weightOf(s, i, int(j)); fate(i, int(j), w) {
				s.kept = append(s.kept, graph.Edge{A: i, B: int(j), Weight: w})
			}
		}
		s.release()
	})
	return k.gather()
}

// wep keeps the edges that reach the exact global mean weight.
func (k *kernel) wep() []graph.Edge {
	k.each(func(s *scratch, i int) {
		for _, j := range k.neighbours(s, i, i) {
			s.fixed.Add(k.weightOf(s, i, int(j)))
			s.edges++
		}
		s.release()
	})
	var sum exactSum
	for _, s := range k.work {
		s.fixed.flush(&s.sum)
		sum.addSum(&s.sum)
	}
	n := k.counted()
	if n == 0 {
		return nil
	}
	thr := sum.Mean(n)
	tie := sum.atLeastMean(thr, n)
	// The global mean leaves no useful bound on the kept share.
	return k.keep(0, func(_, _ int, w float64) bool { return w > thr || (w == thr && tie) })
}

// wnp keeps the edges that reach the exact mean of either endpoint's
// neighbourhood (both, if reciprocal).
func (k *kernel) wnp(reciprocal bool) []graph.Edge {
	// mean is each record's neighbourhood mean; tie says whether a weight
	// equal to it reaches the exact mean.
	mean := make([]float64, k.Records())
	tie := make([]bool, k.Records())
	k.each(func(s *scratch, i int) {
		nb := k.neighbours(s, i, -1)
		if len(nb) > 0 {
			for _, j := range nb {
				s.fixed.Add(k.weightOf(s, i, int(j)))
			}
			s.fixed.flush(&s.sum)
			mean[i] = s.sum.Mean(len(nb))
			tie[i] = s.sum.atLeastMean(mean[i], len(nb))
		}
		s.edges += len(nb)
		s.release()
	})
	in := func(i int, w float64) bool { return w > mean[i] || (w == mean[i] && tie[i]) }
	// The kept edges are at most all of them.
	return k.keep(k.counted()/2, func(i, j int, w float64) bool {
		if reciprocal {
			return in(i, w) && in(j, w)
		}
		return in(i, w) || in(j, w)
	})
}

// cnp keeps the edges among the top k of either endpoint's neighbourhood
// (both, if reciprocal) under (weight desc, neighbour id asc).
func (k *kernel) cnp(top int, reciprocal bool) []graph.Edge {
	// Record i's k-th best neighbour is cut[i], at weight cutW[i].
	cutW := make([]float64, k.Records())
	cut := make([]int32, k.Records())
	k.each(func(s *scratch, i int) {
		nb := k.neighbours(s, i, -1)
		// A record with at most k neighbours keeps them all.
		cutW[i], cut[i] = math.Inf(-1), math.MaxInt32
		if len(nb) > top {
			s.ranked = s.ranked[:0]
			for _, j := range nb {
				s.ranked = append(s.ranked, graph.Edge{B: int(j), Weight: k.weightOf(s, i, int(j))})
			}
			slices.SortFunc(s.ranked, edgeOrder)
			cutW[i], cut[i] = s.ranked[top-1].Weight, int32(s.ranked[top-1].B)
		}
		s.edges += min(len(nb), top)
		s.release()
	})
	in := func(i, j int, w float64) bool {
		return w > cutW[i] || (w == cutW[i] && int32(j) <= cut[i])
	}
	// Every kept edge is in the top k of an endpoint.
	return k.keep(k.counted(), func(i, j int, w float64) bool {
		if reciprocal {
			return in(i, j, w) && in(j, i, w)
		}
		return in(i, j, w) || in(j, i, w)
	})
}

// cep keeps the top edges under edgeOrder.
func (k *kernel) cep(top int) []graph.Edge {
	kept := k.keep(0, func(int, int, float64) bool { return true })
	return kept[:min(top, len(kept))]
}
