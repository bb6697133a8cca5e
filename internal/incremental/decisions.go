package incremental

import (
	"context"

	"entityres/internal/entity"
	"entityres/internal/matching"
)

// decisionCache caches pairwise matcher decisions for the deferred
// meta-blocking reconcile. A decision is a pure function of the two
// descriptions' attributes (enforced at resolver construction), so it
// stays valid until one endpoint is updated or deleted — Invalidate
// drops every decision involving that endpoint.
type decisionCache struct {
	m map[entity.ID]map[entity.ID]bool
}

// newDecisionCache returns an empty decision cache.
func newDecisionCache() *decisionCache {
	return &decisionCache{m: make(map[entity.ID]map[entity.ID]bool)}
}

// Get returns the cached decision for {a, b} and whether one exists.
func (c *decisionCache) Get(a, b entity.ID) (sim, ok bool) {
	sim, ok = c.m[a][b]
	return sim, ok
}

// Set records the decision for {a, b} in both directions, so invalidation
// by either endpoint finds it.
func (c *decisionCache) Set(a, b entity.ID, sim bool) {
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
func (c *decisionCache) Invalidate(id entity.ID) {
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
func (c *decisionCache) Delete(a, b entity.ID) {
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
func (c *decisionCache) Each(fn func(a, b entity.ID, sim bool) bool) {
	for a, m := range c.m {
		for b, sim := range m {
			if a < b && !fn(a, b, sim) {
				return
			}
		}
	}
}

// evaluateFresh runs the cache-missing pairs through the matcher pool and
// folds the decisions into the cache, in input order, returning the number
// of matcher invocations. It is the evaluation core of the delta reconcile
// (meta.go). On error
// (context cancellation mid-frontier) nothing is cached and nothing
// counted — the match state stays exactly what it was before the call, the
// work stays pending, and comparison counters sum completed reconciles
// only, keeping them equal to a batch run's count on replayed collections.
func evaluateFresh(ctx context.Context, coll *entity.Collection, m *matching.Matcher, workers int, cache *decisionCache, fresh []entity.Pair) (int64, error) {
	if len(fresh) == 0 {
		return 0, nil
	}
	out, err := matching.ResolvePairs(ctx, coll, fresh, m, workers)
	if err != nil {
		return 0, err
	}
	for _, p := range fresh {
		cache.Set(p.A, p.B, out.Matches.Contains(p.A, p.B))
	}
	return out.Comparisons, nil
}
