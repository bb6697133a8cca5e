// Change tracking over WeightedGraph: the dirt feed of everything that
// wants to stay proportional to the delta instead of rescanning the graph.
// A tracker (ChangeSet) registered through Track receives every statistic
// the graph touches from that moment on — pairs whose co-occurrence counts
// moved, descriptions whose block-appearance counts moved, and whether the
// comparison-suggesting block count changed. The DeltaPruner (delta.go)
// drains one tracker per reconcile.
package metablocking

import "entityres/internal/entity"

// ChangeSet accumulates the statistics a WeightedGraph touched since the
// set was created or last drained. The zero value is not usable; obtain one
// through WeightedGraph.Track.
type ChangeSet struct {
	pairs  map[entity.Pair]struct{}
	nodes  map[entity.ID]struct{}
	blocks bool
}

func newChangeSet() *ChangeSet {
	return &ChangeSet{
		pairs: make(map[entity.Pair]struct{}),
		nodes: make(map[entity.ID]struct{}),
	}
}

// Empty reports whether nothing changed since the last drain.
func (c *ChangeSet) Empty() bool {
	return len(c.pairs) == 0 && len(c.nodes) == 0 && !c.blocks
}

// drain hands the accumulated dirt to the caller and resets the set.
func (c *ChangeSet) drain() (pairs map[entity.Pair]struct{}, nodes map[entity.ID]struct{}, blocks bool) {
	pairs, nodes, blocks = c.pairs, c.nodes, c.blocks
	c.pairs = make(map[entity.Pair]struct{}, 16)
	c.nodes = make(map[entity.ID]struct{}, 16)
	c.blocks = false
	return pairs, nodes, blocks
}

// Track registers and returns a fresh change set: it sees nothing of the
// graph's existing state (consumers that need a baseline build it
// themselves) and every mutation from now on.
func (wg *WeightedGraph) Track() *ChangeSet {
	cs := newChangeSet()
	wg.trackers = append(wg.trackers, cs)
	return cs
}

func (wg *WeightedGraph) markPair(p entity.Pair) {
	for _, t := range wg.trackers {
		t.pairs[p] = struct{}{}
	}
}

func (wg *WeightedGraph) markNode(id entity.ID) {
	for _, t := range wg.trackers {
		t.nodes[id] = struct{}{}
	}
}

func (wg *WeightedGraph) markBlocks() {
	for _, t := range wg.trackers {
		t.blocks = true
	}
}
