package graph

import (
	"math/rand"
	"reflect"
	"testing"

	"entityres/internal/entity"
)

func TestRemoveEdge(t *testing.T) {
	g := New()
	g.SetWeight(1, 2, 0.5)
	g.SetWeight(2, 3, 0.7)
	if !g.RemoveEdge(2, 1) {
		t.Fatal("RemoveEdge(2,1) = false, want true")
	}
	if g.RemoveEdge(1, 2) {
		t.Fatal("second RemoveEdge(1,2) = true, want false")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if _, ok := g.Weight(1, 2); ok {
		t.Fatal("edge {1,2} still present")
	}
	// Node 1 lost its last edge and must vanish from the node count.
	if g.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d, want 2", g.NumNodes())
	}
}

func TestRemoveNode(t *testing.T) {
	g := New()
	g.SetWeight(1, 2, 1)
	g.SetWeight(1, 3, 1)
	g.SetWeight(2, 3, 1)
	got := g.RemoveNode(1)
	if want := []entity.ID{2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("RemoveNode(1) neighbors = %v, want %v", got, want)
	}
	if g.NumEdges() != 1 || g.NumNodes() != 2 {
		t.Fatalf("after removal: %d edges, %d nodes; want 1, 2", g.NumEdges(), g.NumNodes())
	}
	if got := g.RemoveNode(99); got != nil {
		t.Fatalf("RemoveNode(99) = %v, want nil", got)
	}
}

func TestDynamicUnionAndSplit(t *testing.T) {
	d := NewDynamic()
	d.AddEdge(1, 2, 1)
	d.AddEdge(3, 4, 1)
	if d.Same(1, 3) {
		t.Fatal("disjoint components reported same")
	}
	d.AddEdge(2, 3, 1) // bridge: one component {1,2,3,4}
	if !d.Same(1, 4) {
		t.Fatal("bridged components not merged")
	}
	want := [][]entity.ID{{1, 2, 3, 4}}
	if got := d.Clusters(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Clusters = %v, want %v", got, want)
	}
	// Removing the bridge node 2 splits {1} (singleton, dropped) from {3,4}.
	d.RemoveNode(2)
	want = [][]entity.ID{{3, 4}}
	if got := d.Clusters(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Clusters after split = %v, want %v", got, want)
	}
	if d.Same(1, 3) {
		t.Fatal("split components reported same")
	}
	// Re-adding an edge through a former singleton works.
	d.AddEdge(1, 3, 1)
	want = [][]entity.ID{{1, 3, 4}}
	if got := d.Clusters(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Clusters after re-add = %v, want %v", got, want)
	}
}

// TestDynamicRandomizedAgainstUnionFind churns a Dynamic with random edge
// insertions and node removals, checking its clusters against a from-scratch
// union-find over the surviving edges at every step.
func TestDynamicRandomizedAgainstUnionFind(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := NewDynamic()
	edges := map[entity.Pair]struct{}{}
	const nodes = 30
	for step := 0; step < 600; step++ {
		if rng.Intn(4) > 0 {
			a, b := rng.Intn(nodes), rng.Intn(nodes)
			if a == b {
				continue
			}
			d.AddEdge(a, b, 1)
			edges[entity.NewPair(a, b)] = struct{}{}
		} else {
			n := rng.Intn(nodes)
			d.RemoveNode(n)
			for p := range edges {
				if p.Contains(n) {
					delete(edges, p)
				}
			}
		}
		if step%20 != 19 {
			continue
		}
		uf := entity.NewUnionFind(nodes)
		for p := range edges {
			uf.Union(p.A, p.B)
		}
		if got, want := d.Clusters(), uf.Clusters(); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: dynamic clusters %v, union-find %v", step, got, want)
		}
		assertClusterReads(t, d, nodes)
		if got, want := d.NumEdges(), len(edges); got != want {
			t.Fatalf("step %d: NumEdges = %d, want %d", step, got, want)
		}
	}
}

// assertClusterReads checks the O(answer) reads against Clusters: every
// node's ClusterOf is the cluster listing it (nil when none does), and
// NumClusters counts them.
func assertClusterReads(t *testing.T, d *Dynamic, nodes int) {
	t.Helper()
	clusters := d.Clusters()
	if got := d.NumClusters(); got != len(clusters) {
		t.Fatalf("NumClusters = %d, Clusters has %d", got, len(clusters))
	}
	of := map[entity.ID][]entity.ID{}
	for _, cl := range clusters {
		for _, id := range cl {
			of[id] = cl
		}
	}
	for id := 0; id < nodes; id++ {
		if got := d.ClusterOf(id); !reflect.DeepEqual(got, of[id]) {
			t.Fatalf("ClusterOf(%d) = %v, want %v", id, got, of[id])
		}
	}
}

// TestDynamicClusterOf churns a Dynamic with random AddEdge, RemoveEdges
// and RemoveNode calls, checking ClusterOf and NumClusters against
// Clusters after every step; a returned cluster is the caller's copy.
func TestDynamicClusterOf(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := NewDynamic()
	const nodes = 20
	for step := 0; step < 800; step++ {
		switch op := rng.Intn(6); {
		case op < 3:
			d.AddEdge(rng.Intn(nodes), rng.Intn(nodes), 1)
		case op < 5:
			var batch []entity.Pair
			for range rng.Intn(4) + 1 {
				if a, b := rng.Intn(nodes), rng.Intn(nodes); a != b {
					batch = append(batch, entity.NewPair(a, b))
				}
			}
			d.RemoveEdges(batch)
		default:
			d.RemoveNode(rng.Intn(nodes))
		}
		assertClusterReads(t, d, nodes)
	}
	d = NewDynamic()
	d.AddEdge(1, 2, 1)
	cl := d.ClusterOf(1)
	cl[0] = 99
	if got := d.ClusterOf(2); !reflect.DeepEqual(got, []entity.ID{1, 2}) {
		t.Fatalf("ClusterOf shares its result with the structure: %v", got)
	}
	if d.ClusterOf(3) != nil || NewDynamic().NumClusters() != 0 {
		t.Fatal("an unknown node has a cluster")
	}
}

// TestDynamicMatches checks the edge materialization round-trips.
func TestDynamicMatches(t *testing.T) {
	d := NewDynamic()
	d.AddEdge(5, 1, 0.9)
	d.AddEdge(1, 2, 0.8)
	m := d.Matches()
	if m.Len() != 2 || !m.Contains(1, 5) || !m.Contains(1, 2) {
		t.Fatalf("Matches = %v", m.Pairs())
	}
	if g := d.Graph(); g.NumEdges() != 2 || g.NumNodes() != 3 {
		t.Fatalf("Graph() reports %d edges, %d nodes", g.NumEdges(), g.NumNodes())
	}
}

// TestDynamicRemoveEdge: deleting one match edge splits the component when
// the edge was a bridge and leaves it whole otherwise; both endpoints stay.
func TestDynamicRemoveEdge(t *testing.T) {
	d := NewDynamic()
	d.AddEdge(1, 2, 1)
	d.AddEdge(2, 3, 1)
	d.AddEdge(3, 1, 1) // triangle: removing one edge must NOT split
	if !d.RemoveEdge(1, 2) {
		t.Fatal("RemoveEdge(1,2) = false, want true")
	}
	if d.RemoveEdge(1, 2) {
		t.Fatal("second RemoveEdge(1,2) = true, want false")
	}
	if want := [][]entity.ID{{1, 2, 3}}; !reflect.DeepEqual(d.Clusters(), want) {
		t.Fatalf("triangle minus one edge: Clusters = %v, want %v", d.Clusters(), want)
	}
	// Now {1,2} hangs on the bridge 3-1 via 2-3 and 3-1: removing 2-3
	// isolates 2 (singleton, dropped from Clusters).
	if !d.RemoveEdge(2, 3) {
		t.Fatal("RemoveEdge(2,3) = false, want true")
	}
	if want := [][]entity.ID{{1, 3}}; !reflect.DeepEqual(d.Clusters(), want) {
		t.Fatalf("after bridge removal: Clusters = %v, want %v", d.Clusters(), want)
	}
	if d.Same(2, 3) {
		t.Fatal("split endpoints reported same")
	}
	// The isolated endpoint can rejoin through a later edge.
	d.AddEdge(2, 1, 1)
	if !d.Same(2, 3) {
		t.Fatal("rejoined endpoints not same")
	}
}

// TestDynamicRandomizedRemoveEdge churns edge insertions AND edge removals,
// checking clusters against a from-scratch union-find at every step — the
// RemoveEdge counterpart of TestDynamicRandomizedAgainstUnionFind.
func TestDynamicRandomizedRemoveEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := NewDynamic()
	edges := map[entity.Pair]struct{}{}
	var list []entity.Pair
	const nodes = 25
	for step := 0; step < 600; step++ {
		if rng.Intn(3) > 0 || len(list) == 0 {
			a, b := rng.Intn(nodes), rng.Intn(nodes)
			if a == b {
				continue
			}
			p := entity.NewPair(a, b)
			if _, dup := edges[p]; !dup {
				edges[p] = struct{}{}
				list = append(list, p)
			}
			d.AddEdge(a, b, 1)
		} else {
			i := rng.Intn(len(list))
			p := list[i]
			list[i] = list[len(list)-1]
			list = list[:len(list)-1]
			delete(edges, p)
			if !d.RemoveEdge(p.A, p.B) {
				t.Fatalf("step %d: RemoveEdge(%v) = false", step, p)
			}
		}
		if step%20 != 19 {
			continue
		}
		uf := entity.NewUnionFind(nodes)
		for p := range edges {
			uf.Union(p.A, p.B)
		}
		if got, want := d.Clusters(), uf.Clusters(); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: dynamic clusters %v, union-find %v", step, got, want)
		}
		assertClusterReads(t, d, nodes)
		if got, want := d.NumEdges(), len(edges); got != want {
			t.Fatalf("step %d: NumEdges = %d, want %d", step, got, want)
		}
	}
}

// TestDynamicRemoveEdgesBulk: a batch removal spanning several components
// (including duplicates and non-existent edges) equals edge-by-edge
// removal, with every affected component reassigned correctly.
func TestDynamicRemoveEdgesBulk(t *testing.T) {
	d := NewDynamic()
	// Two components: a path 1-2-3-4 and a triangle 5-6-7.
	for _, e := range [][2]entity.ID{{1, 2}, {2, 3}, {3, 4}, {5, 6}, {6, 7}, {7, 5}} {
		d.AddEdge(e[0], e[1], 1)
	}
	removed := d.RemoveEdges([]entity.Pair{
		entity.NewPair(2, 3), // splits the path
		entity.NewPair(5, 6), // triangle survives connected
		entity.NewPair(5, 6), // duplicate: already gone
		entity.NewPair(1, 9), // never existed
	})
	if removed != 2 {
		t.Fatalf("RemoveEdges removed %d, want 2", removed)
	}
	want := [][]entity.ID{{1, 2}, {3, 4}, {5, 6, 7}}
	if got := d.Clusters(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Clusters = %v, want %v", got, want)
	}
	if d.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", d.NumEdges())
	}
	if d.RemoveEdges(nil) != 0 {
		t.Fatal("empty batch removed something")
	}
}

// TestDynamicSnapshotRoundTrip: the edge set is the whole snapshot — a
// structure rebuilt from SnapshotEdges answers Matches, Clusters and Same
// identically and keeps maintaining correctly afterwards.
func TestDynamicSnapshotRoundTrip(t *testing.T) {
	d := NewDynamic()
	for _, e := range [][2]entity.ID{{1, 2}, {2, 3}, {5, 6}, {6, 7}, {7, 5}, {9, 10}} {
		d.AddEdge(e[0], e[1], 1)
	}
	d.RemoveNode(10) // leave a trace of node-removal history behind

	edges := d.SnapshotEdges()
	got := DynamicFromEdges(edges)
	if !reflect.DeepEqual(got.Clusters(), d.Clusters()) {
		t.Fatalf("Clusters after round trip = %v, want %v", got.Clusters(), d.Clusters())
	}
	if got.NumEdges() != d.NumEdges() {
		t.Fatalf("NumEdges after round trip = %d, want %d", got.NumEdges(), d.NumEdges())
	}
	if !reflect.DeepEqual(got.SnapshotEdges(), edges) {
		t.Fatal("snapshot of restored structure differs")
	}
	if got.Same(1, 3) != d.Same(1, 3) || got.Same(1, 5) != d.Same(1, 5) {
		t.Fatal("Same answers diverge after round trip")
	}
	// Post-restore maintenance stays equivalent.
	d.RemoveEdge(2, 3)
	got.RemoveEdge(2, 3)
	d.AddEdge(3, 5, 1)
	got.AddEdge(3, 5, 1)
	if !reflect.DeepEqual(got.Clusters(), d.Clusters()) {
		t.Fatalf("post-restore maintenance diverges: %v vs %v", got.Clusters(), d.Clusters())
	}
	// Empty snapshot round trip.
	if e := NewDynamic().SnapshotEdges(); len(e) != 0 {
		t.Fatalf("empty snapshot has %d edges", len(e))
	}
}
