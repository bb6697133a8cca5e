package graph

import (
	"sort"

	"entityres/internal/entity"
)

// RemoveEdge deletes the undirected edge {a, b}, reporting whether it
// existed. Nodes left without edges remain absent from NumNodes, matching
// the construction invariant that nodes exist through their edges.
func (g *Graph) RemoveEdge(a, b entity.ID) bool {
	if _, ok := g.adj[a][b]; !ok {
		return false
	}
	g.numEdges--
	g.removeDirected(a, b)
	g.removeDirected(b, a)
	return true
}

// RemoveNode deletes id and every incident edge, returning the neighbors it
// was connected to (sorted ascending; nil when the node had no edges). The
// cost is proportional to the node's degree — the targeted maintenance the
// streaming resolver relies on.
func (g *Graph) RemoveNode(id entity.ID) []entity.ID {
	m, ok := g.adj[id]
	if !ok {
		return nil
	}
	neighbors := make([]entity.ID, 0, len(m))
	for n := range m {
		neighbors = append(neighbors, n)
		g.removeDirected(n, id)
		g.numEdges--
	}
	delete(g.adj, id)
	sort.Ints(neighbors)
	return neighbors
}

func (g *Graph) removeDirected(from, to entity.ID) {
	m := g.adj[from]
	delete(m, to)
	if len(m) == 0 {
		delete(g.adj, from)
	}
}

// Dynamic maintains the connected components of a mutating match graph:
// union-by-size on edge insertion, targeted recomputation of the single
// affected component on node removal. It is the incremental counterpart of
// entity.Matches.Clusters — the resolved-entity view kept current while
// matches stream in and descriptions are deleted or updated, without ever
// recomputing components from scratch.
type Dynamic struct {
	g *Graph
	// comp maps every node that has (or ever had, while still live) an
	// edge to its component representative.
	comp map[entity.ID]entity.ID
	// members maps a representative to its component's member set.
	members map[entity.ID]map[entity.ID]struct{}
	// clusters counts the components with two or more members.
	clusters int
}

// NewDynamic returns an empty dynamic component structure.
func NewDynamic() *Dynamic {
	return &Dynamic{
		g:       New(),
		comp:    make(map[entity.ID]entity.ID),
		members: make(map[entity.ID]map[entity.ID]struct{}),
	}
}

// Graph returns the underlying match graph. Callers must mutate it only
// through AddEdge, RemoveEdge and RemoveNode, or the component index
// drifts.
func (d *Dynamic) Graph() *Graph { return d.g }

// NumEdges returns the number of match edges.
func (d *Dynamic) NumEdges() int { return d.g.NumEdges() }

// Same reports whether a and b currently belong to one component.
func (d *Dynamic) Same(a, b entity.ID) bool {
	ra, ok := d.comp[a]
	if !ok {
		return false
	}
	rb, ok := d.comp[b]
	return ok && ra == rb
}

// AddEdge inserts the match edge {a, b} with the given weight, merging the
// endpoints' components (smaller into larger). Self-loops are ignored.
func (d *Dynamic) AddEdge(a, b entity.ID, w float64) {
	if a == b {
		return
	}
	d.g.SetWeight(a, b, w)
	ra, rb := d.ensure(a), d.ensure(b)
	if ra == rb {
		return
	}
	if len(d.members[ra]) < len(d.members[rb]) {
		ra, rb = rb, ra
	}
	if len(d.members[ra]) == 1 {
		d.clusters++ // two singletons merge
	} else if len(d.members[rb]) > 1 {
		d.clusters-- // two clusters merge
	}
	for id := range d.members[rb] {
		d.comp[id] = ra
		d.members[ra][id] = struct{}{}
	}
	delete(d.members, rb)
}

// ensure registers id as a singleton component if unseen and returns its
// representative.
func (d *Dynamic) ensure(id entity.ID) entity.ID {
	if r, ok := d.comp[id]; ok {
		return r
	}
	d.comp[id] = id
	d.members[id] = map[entity.ID]struct{}{id: {}}
	return id
}

// RemoveNode deletes id and its incident match edges, then recomputes the
// connectivity of (only) the component it belonged to: removing a node can
// split its component into several, and which nodes end up together is
// decided by breadth-first search over the surviving edges of the old
// component's members — every other component is untouched.
func (d *Dynamic) RemoveNode(id entity.ID) {
	rep, ok := d.comp[id]
	if !ok {
		return
	}
	old := d.members[rep]
	if len(old) > 1 {
		d.clusters-- // reassign counts what the removal leaves
	}
	d.g.RemoveNode(id)
	delete(d.comp, id)
	delete(old, id)
	delete(d.members, rep)
	d.reassign(old)
}

// RemoveEdge deletes the match edge {a, b} — both endpoints stay — and
// recomputes the connectivity of (only) the component it belonged to,
// which the removal may have split in two. It reports whether the edge
// existed.
func (d *Dynamic) RemoveEdge(a, b entity.ID) bool {
	return d.RemoveEdges([]entity.Pair{entity.NewPair(a, b)}) == 1
}

// RemoveEdges deletes a batch of match edges — endpoints stay — and then
// recomputes the connectivity of every affected component in ONE pass,
// returning how many of the edges existed. Bulk removal is what the
// streaming resolver's live meta-blocking retires pruned-out matches
// with: m retirements inside one component cost a single reassignment of
// that component instead of m (which would be quadratic edge-by-edge).
func (d *Dynamic) RemoveEdges(pairs []entity.Pair) int {
	// Dissolve each affected component once, before any BFS: comp and
	// members are only rebuilt by the final reassign, so representatives
	// looked up mid-loop are still the pre-removal ones.
	dissolved := make(map[entity.ID]struct{})
	removed := 0
	for _, p := range pairs {
		if !d.g.RemoveEdge(p.A, p.B) {
			continue
		}
		removed++
		rep := d.comp[p.A]
		if old, ok := d.members[rep]; ok {
			d.clusters-- // it held the edge; reassign counts what is left
			for id := range old {
				dissolved[id] = struct{}{}
			}
			delete(d.members, rep)
		}
	}
	if removed > 0 {
		d.reassign(dissolved)
	}
	return removed
}

// reassign rebuilds the components of one dissolved member set by BFS over
// the surviving edges; each unvisited member seeds a new component
// represented by its seed. Members left edgeless become singleton
// components (invisible to Clusters).
func (d *Dynamic) reassign(old map[entity.ID]struct{}) {
	visited := make(map[entity.ID]struct{}, len(old))
	for seed := range old {
		if _, done := visited[seed]; done {
			continue
		}
		comp := map[entity.ID]struct{}{seed: {}}
		visited[seed] = struct{}{}
		queue := []entity.ID{seed}
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			for nb := range d.g.adj[n] {
				if _, done := visited[nb]; done {
					continue
				}
				visited[nb] = struct{}{}
				comp[nb] = struct{}{}
				queue = append(queue, nb)
			}
		}
		d.members[seed] = comp
		if len(comp) > 1 {
			d.clusters++
		}
		for n := range comp {
			d.comp[n] = seed
		}
	}
}

// Clusters returns the non-singleton components, each sorted ascending,
// ordered by smallest member — the same deterministic shape as
// entity.UnionFind.Clusters, so dynamic and batch cluster output compare
// directly.
func (d *Dynamic) Clusters() [][]entity.ID {
	var out [][]entity.ID
	for _, m := range d.members {
		if len(m) >= 2 {
			out = append(out, sortedMembers(m))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// NumClusters returns len(Clusters()), kept current by every mutation.
func (d *Dynamic) NumClusters() int { return d.clusters }

// ClusterOf returns id's component sorted ascending, a fresh copy, or nil
// when id has no match edge. Its cost is the cluster's size.
func (d *Dynamic) ClusterOf(id entity.ID) []entity.ID {
	rep, ok := d.comp[id]
	if !ok || len(d.members[rep]) < 2 {
		return nil
	}
	return sortedMembers(d.members[rep])
}

// sortedMembers returns a member set as an ascending slice.
func sortedMembers(m map[entity.ID]struct{}) []entity.ID {
	cl := make([]entity.ID, 0, len(m))
	for n := range m {
		cl = append(cl, n)
	}
	sort.Ints(cl)
	return cl
}

// SnapshotEdges returns the dynamic graph's edges sorted by (A, B) — the
// serializable form of its state. The component index is derivable from the
// edge set, so edges are the whole snapshot: DynamicFromEdges rebuilds an
// equivalent structure (identical Matches, Clusters and Same answers) from
// them. This is the snapshot codec the durable streaming resolver persists
// the match graph through.
func (d *Dynamic) SnapshotEdges() []Edge { return d.g.Edges() }

// DynamicFromEdges rebuilds a dynamic component structure from a snapshot
// edge set, re-deriving the components by edge insertion.
func DynamicFromEdges(edges []Edge) *Dynamic {
	d := NewDynamic()
	for _, e := range edges {
		d.AddEdge(e.A, e.B, e.Weight)
	}
	return d
}

// Matches materializes the current match edges as an entity.Matches.
func (d *Dynamic) Matches() *entity.Matches {
	m := entity.NewMatches()
	d.g.EachEdge(func(e Edge) bool {
		m.Add(e.A, e.B)
		return true
	})
	return m
}
