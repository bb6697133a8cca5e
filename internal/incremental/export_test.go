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

// RowStore returns a copy of r's token row store, one entry per slot, nil
// where the store holds no row.
func (r *Resolver) RowStore() [][]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([][]string, r.coll.Len())
	copy(out, r.rows)
	return out
}

// LiveRow returns live record id's token row as a pair reads it, filling
// its store slot on first use.
func (r *Resolver) LiveRow(id entity.ID) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.row(id)
}

// SharedRows reports whether r's rows are its block index's key lists.
func (r *Resolver) SharedRows() bool { return r.sharedRows }

// ImageOf returns r's checkpoint image, as a shard bootstrap ships it.
func ImageOf(r *Resolver) (*Image, error) {
	r.mu.Lock()
	payload, _, err := r.encodeSnapshot()
	r.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return DecodeImage(payload)
}
