package incremental

import (
	"entityres/internal/entity"
	"entityres/internal/metablocking"
)

// WeightedOf returns a copy of r's live weighted blocking graph, or nil
// without meta-blocking, reconciling nothing — the tests compare two
// resolvers' weighting statistics with it.
func WeightedOf(r *Resolver) *metablocking.WeightedGraph {
	r.rlock()
	defer r.mu.RUnlock()
	if r.weighted == nil {
		return nil
	}
	out := metablocking.NewWeightedGraph(r.cfg.Kind)
	out.Merge(r.weighted)
	return out
}

// MatchNeighbors returns the descriptions currently matched to id in r's
// match graph, ascending, without reconciling deferred meta-blocking work.
func (r *Resolver) MatchNeighbors(id entity.ID) []entity.ID {
	r.rlock()
	defer r.mu.RUnlock()
	return r.dyn.Graph().Neighbors(id)
}
