package incremental

import (
	"context"
	"fmt"

	"entityres/internal/blocking"
	"entityres/internal/entity"
	"entityres/internal/graph"
	"entityres/internal/matching"
)

// DecisionCache caches pairwise matcher decisions for the deferred
// meta-blocking reconcile. A decision is a pure function of the two
// descriptions' attributes (enforced at resolver construction), so it
// stays valid until one endpoint is updated or deleted — Invalidate
// drops every decision involving that endpoint. The single-node resolver
// and the sharded coordinator share this type (and ReconcileKept below),
// so their reconcile semantics cannot drift apart.
type DecisionCache struct {
	m map[entity.ID]map[entity.ID]bool
}

// NewDecisionCache returns an empty decision cache.
func NewDecisionCache() *DecisionCache {
	return &DecisionCache{m: make(map[entity.ID]map[entity.ID]bool)}
}

// Get returns the cached decision for {a, b} and whether one exists.
func (c *DecisionCache) Get(a, b entity.ID) (sim, ok bool) {
	sim, ok = c.m[a][b]
	return sim, ok
}

// Set records the decision for {a, b} in both directions, so invalidation
// by either endpoint finds it.
func (c *DecisionCache) Set(a, b entity.ID, sim bool) {
	for _, d := range [2][2]entity.ID{{a, b}, {b, a}} {
		m, ok := c.m[d[0]]
		if !ok {
			m = make(map[entity.ID]bool)
			c.m[d[0]] = m
		}
		m[d[1]] = sim
	}
}

// Invalidate drops every cached decision involving id — its content is
// about to change or disappear. Cost is proportional to id's cached
// degree.
func (c *DecisionCache) Invalidate(id entity.ID) {
	for other := range c.m[id] {
		m := c.m[other]
		delete(m, id)
		if len(m) == 0 {
			delete(c.m, other)
		}
	}
	delete(c.m, id)
}

// Delete drops the single cached decision for {a, b}, if present — the
// removal primitive of the legacy delta-snapshot decoder.
func (c *DecisionCache) Delete(a, b entity.ID) {
	for _, d := range [2][2]entity.ID{{a, b}, {b, a}} {
		m := c.m[d[0]]
		delete(m, d[1])
		if len(m) == 0 {
			delete(c.m, d[0])
		}
	}
}

// Each enumerates the cached decisions as canonical (a < b) pairs, in
// unspecified order, stopping early if fn returns false.
func (c *DecisionCache) Each(fn func(a, b entity.ID, sim bool) bool) {
	for a, m := range c.m {
		for b, sim := range m {
			if a < b && !fn(a, b, sim) {
				return
			}
		}
	}
}

// Decision is one pairwise matcher decision in exchange form — the unit a
// coordinator journal persists so a recovered decision cache re-evaluates
// exactly the pairs an uninterrupted run would.
type Decision struct {
	A, B  entity.ID
	Match bool
}

// ReconcileKept is the shared core of the deferred meta-blocking
// reconcile: given the edges a pruning pass kept, it evaluates the kept
// pairs that miss the decision cache through the matcher pool (over coll,
// in kept order), folds the fresh decisions into the cache, and makes dyn
// equal {kept ∧ similar}. It returns the number of matcher invocations —
// exactly the pairs that were not already decided — and those freshly
// evaluated decisions in kept order, for callers that journal them. On
// context cancellation nothing is cached and dyn is untouched, so the
// deferred work simply stays pending and a retry restores consistency.
func ReconcileKept(ctx context.Context, coll *entity.Collection, m *matching.Matcher, workers int, cache *DecisionCache, dyn *graph.Dynamic, kept []graph.Edge) (int64, []Decision, error) {
	var fresh []entity.Pair
	for _, e := range kept {
		if _, ok := cache.Get(e.A, e.B); !ok {
			fresh = append(fresh, entity.NewPair(e.A, e.B))
		}
	}
	comparisons, decided, err := evaluateFresh(ctx, coll, m, workers, cache, fresh)
	if err != nil {
		return 0, nil, err
	}

	// Make the match graph equal {kept ∧ similar}: retire edges whose pair
	// fell out of the pruned graph, add edges that newly entered it.
	desired := make(map[entity.Pair]struct{}, len(kept))
	for _, e := range kept {
		if sim, _ := cache.Get(e.A, e.B); sim {
			desired[entity.NewPair(e.A, e.B)] = struct{}{}
		}
	}
	var stale []entity.Pair
	dyn.Graph().EachEdge(func(e graph.Edge) bool {
		p := entity.NewPair(e.A, e.B)
		if _, keep := desired[p]; !keep {
			stale = append(stale, p)
		}
		return true
	})
	dyn.RemoveEdges(stale)
	for p := range desired {
		dyn.AddEdge(p.A, p.B, 1)
	}
	return comparisons, decided, nil
}

// evaluateFresh runs the cache-missing pairs through the matcher pool and
// folds the decisions into the cache, in input order. It is the evaluation
// core shared by ReconcileKept (the coordinator's full-set reconcile) and
// the single-node resolver's delta reconcile (meta.go), so the two paths
// cannot drift in matcher semantics or comparison accounting. On error
// (context cancellation mid-frontier) nothing is cached and nothing
// counted — the match state stays exactly what it was before the call, the
// work stays pending, and comparison counters sum completed reconciles
// only, keeping them equal to a batch run's count on replayed collections.
func evaluateFresh(ctx context.Context, coll *entity.Collection, m *matching.Matcher, workers int, cache *DecisionCache, fresh []entity.Pair) (int64, []Decision, error) {
	if len(fresh) == 0 {
		return 0, nil, nil
	}
	frontier := blocking.NewBlocks(entity.CleanClean)
	for _, p := range fresh {
		frontier.Add(&blocking.Block{
			Key: fmt.Sprintf("meta:%d-%d", p.A, p.B),
			S0:  []entity.ID{p.A},
			S1:  []entity.ID{p.B},
		})
	}
	// Small frontiers skip the worker pool, mirroring index().
	if frontier.TotalComparisons() < sequentialDeltaMax {
		workers = 1
	}
	out, err := matching.ResolveBlocksParallel(ctx, coll, frontier, m, workers)
	if err != nil {
		return 0, nil, err
	}
	decided := make([]Decision, 0, len(fresh))
	for _, p := range fresh {
		sim := out.Matches.Contains(p.A, p.B)
		cache.Set(p.A, p.B, sim)
		decided = append(decided, Decision{A: p.A, B: p.B, Match: sim})
	}
	return out.Comparisons, decided, nil
}
