package metablocking

import (
	"runtime"
	"sync"

	"entityres/internal/blocking"
	"entityres/internal/entity"
	"entityres/internal/graph"
)

// BuildGraphParallel builds the weighted blocking graph with the block list
// sharded across concurrent workers: each shard accumulates a WeightedGraph
// (common-block counts, reciprocal-comparison mass, blocks per description)
// over a contiguous block range, and the shard partials are merged in block
// order before weighting.
//
// For the counting-based schemes — CBS, ECBS, JS, EJS — every statistic is
// an integer count, so the weights are bit-identical to BuildGraph for any
// worker count. ARCS sums floating-point reciprocals; merging shard
// subtotals can differ from the sequential left-to-right sum in the last
// ulp, so ARCS weights are equal up to that rounding (the edge ranking is
// unaffected except on exact ties).
//
// mapreduce.ParallelBuildGraph computes the same graph as an explicit
// MapReduce job (the distributed formulation the paper surveys) with its
// own weighting tail; this function is the in-process fast path
// core.Pipeline's meta-blocking phase uses. A change to weighting semantics here (in
// WeightedGraph.Graph, shared with the sequential build and the streaming
// resolver) must be mirrored there.
func BuildGraphParallel(bs *blocking.Blocks, scheme WeightScheme, workers int) *graph.Graph {
	nb := bs.Len()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nb {
		workers = nb
	}
	if workers <= 1 {
		return BuildGraph(bs, scheme)
	}
	accs := make([]*WeightedGraph, workers)
	var wg sync.WaitGroup
	for s := 0; s < workers; s++ {
		lo, hi := s*nb/workers, (s+1)*nb/workers
		wg.Add(1)
		go func(s, lo, hi int) {
			defer wg.Done()
			acc := NewWeightedGraph(bs.Kind())
			for i := lo; i < hi; i++ {
				acc.AccumulateBlock(bs.Get(i))
			}
			accs[s] = acc
		}(s, lo, hi)
	}
	wg.Wait()
	// Merge partials in ascending shard order (= block order).
	merged := accs[0]
	for s := 1; s < workers; s++ {
		merged.Merge(accs[s])
	}
	return merged.Graph(scheme)
}

// RestructureParallel is Restructure with the graph build sharded across
// workers. Pruning and emission are unchanged, so the output equals
// Restructure whenever the weights do (always, for the counting schemes;
// up to last-ulp ARCS rounding otherwise — see BuildGraphParallel).
func (m *MetaBlocker) RestructureParallel(c *entity.Collection, bs *blocking.Blocks, workers int) *blocking.Blocks {
	return m.restructure(c, bs, BuildGraphParallel(bs, m.Weight, workers))
}
