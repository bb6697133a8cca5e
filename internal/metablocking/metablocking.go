// Package metablocking implements meta-blocking [22] (§II of the paper):
// an existing blocking collection B is transformed into a blocking graph —
// nodes are descriptions, undirected edges connect co-occurring
// descriptions (eliminating all redundant comparisons by construction) —
// edges are weighted by the likelihood that their endpoints match, the
// low-weight edges are pruned, and the surviving edges are returned as a
// restructured collection of two-description blocks.
//
// Five weighting schemes (CBS, ECBS, JS, EJS, ARCS) and four pruning
// schemes (WEP, CEP, WNP, CNP, plus reciprocal node-centric variants)
// reproduce the design space the paper surveys.
//
// Batch restructuring (Restructure, RestructureParallel) is node-centric
// and never materializes the graph: a CSR entity index lists every
// record's blocks, one flat counter array per worker accumulates a
// record's whole neighbourhood, and each pruning scheme decides an edge
// from per-record figures gathered in an earlier pass (kernel.go).
//
// The materialized graph remains for everything else. Its co-occurrence
// statistics live in WeightedGraph, a core maintained either by batch
// accumulation over a finished block collection (BuildGraph, FromBlocks)
// or by per-document deltas under a stream of inserts, updates and deletes
// (AddDocument / RemoveDocument, driven by blocking.BlockIndex membership
// notifications) — the incremental regime the streaming resolver uses for
// live WEP/WNP pruning of its comparison frontiers. PruneGraph over
// BuildGraph is the reference the batch kernel is tested against.
package metablocking

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"entityres/internal/blocking"
	"entityres/internal/entity"
	"entityres/internal/graph"
)

// WeightScheme selects how edge weights are computed from block
// co-occurrence statistics.
type WeightScheme int

const (
	// CBS (Common Blocks Scheme) weighs an edge by the number of blocks
	// its endpoints share.
	CBS WeightScheme = iota
	// ECBS (Enhanced CBS) discounts descriptions that appear in many
	// blocks: CBS · log(|B|/|B_a|) · log(|B|/|B_b|).
	ECBS
	// JS weighs an edge by the Jaccard coefficient of the endpoints' block
	// sets.
	JS
	// EJS (Enhanced JS) additionally discounts high-degree nodes:
	// JS · log(|E|/deg(a)) · log(|E|/deg(b)).
	EJS
	// ARCS (Aggregate Reciprocal Comparisons Scheme) credits small blocks:
	// Σ over common blocks of 1/||b||.
	ARCS
)

// String implements fmt.Stringer.
func (w WeightScheme) String() string {
	switch w {
	case CBS:
		return "CBS"
	case ECBS:
		return "ECBS"
	case JS:
		return "JS"
	case EJS:
		return "EJS"
	case ARCS:
		return "ARCS"
	default:
		return fmt.Sprintf("WeightScheme(%d)", int(w))
	}
}

// WeightSchemes lists all supported schemes in experiment order.
func WeightSchemes() []WeightScheme { return []WeightScheme{CBS, ECBS, JS, EJS, ARCS} }

// PruneScheme selects how the weighted blocking graph is pruned.
type PruneScheme int

const (
	// WEP (Weighted Edge Pruning) keeps edges whose weight is at least the
	// global mean edge weight.
	WEP PruneScheme = iota
	// CEP (Cardinality Edge Pruning) keeps the globally top-K edges with
	// K = ⌊total block assignments / 2⌋.
	CEP
	// WNP (Weighted Node Pruning) keeps an edge if its weight reaches the
	// local mean of either endpoint's neighborhood (both, if Reciprocal).
	WNP
	// CNP (Cardinality Node Pruning) keeps an edge if it is among the
	// top-k of either endpoint (both, if Reciprocal), with k derived from
	// the average blocks per description.
	CNP
)

// String implements fmt.Stringer.
func (p PruneScheme) String() string {
	switch p {
	case WEP:
		return "WEP"
	case CEP:
		return "CEP"
	case WNP:
		return "WNP"
	case CNP:
		return "CNP"
	default:
		return fmt.Sprintf("PruneScheme(%d)", int(p))
	}
}

// PruneSchemes lists all supported schemes in experiment order.
func PruneSchemes() []PruneScheme { return []PruneScheme{WEP, CEP, WNP, CNP} }

// MetaBlocker restructures a blocking collection through the weighted
// blocking graph.
type MetaBlocker struct {
	Weight WeightScheme
	Prune  PruneScheme
	// Reciprocal makes the node-centric schemes (WNP, CNP) require an edge
	// to survive in the neighborhoods of both endpoints, trading recall
	// for precision.
	Reciprocal bool
	// K overrides the retained-edge budget of CEP (0 = automatic).
	K int
}

// Name identifies the configuration in experiment tables.
func (m *MetaBlocker) Name() string {
	r := ""
	if m.Reciprocal {
		r = "-R"
	}
	return fmt.Sprintf("meta(%s,%s%s)", m.Weight, m.Prune, r)
}

// BuildGraph constructs the weighted blocking graph of bs under the given
// scheme. The graph has one edge per distinct comparison in bs. It is the
// batch regime of the WeightedGraph core: accumulate every block, then
// materialize the scheme's weights.
func BuildGraph(bs *blocking.Blocks, scheme WeightScheme) *graph.Graph {
	return FromBlocks(bs).Graph(scheme)
}

func js(cbs, ba, bb int) float64 {
	union := ba + bb - cbs
	if union == 0 {
		return 0
	}
	return float64(cbs) / float64(union)
}

// Restructure weighs the blocking graph of bs, prunes it, and returns the
// surviving edges as a collection of two-description blocks ordered by
// descending weight (strongest candidates first — the order progressive
// schedulers rely on). It is RestructureParallel at one worker.
func (m *MetaBlocker) Restructure(c *entity.Collection, bs *blocking.Blocks) *blocking.Blocks {
	return m.RestructureParallel(c, bs, 1)
}

// EmitKept renders retained edges as a collection of two-description
// blocks ordered by descending weight (strongest candidates first — the
// order progressive schedulers rely on), splitting members by source for
// clean-clean collections. It is the emission tail shared by the batch
// restructuring paths and the streaming resolver's RestructuredBlocks, so
// the two render identical collections from identical kept edges. The
// kept slice is reordered in place.
func EmitKept(c *entity.Collection, kind entity.Kind, kept []graph.Edge) *blocking.Blocks {
	slices.SortFunc(kept, edgeOrder)
	// The keys are cut from one builder's buffer, and the blocks and their
	// members share one backing array each.
	var keys strings.Builder
	keys.Grow(18 * len(kept))
	var digits [2*20 + 6]byte
	blocks := make([]blocking.Block, len(kept))
	ids := make([]entity.ID, 2*len(kept))
	out := blocking.NewBlocks(kind)
	for k, e := range kept {
		key := append(digits[:0], "meta:"...)
		key = strconv.AppendInt(key, int64(e.A), 10)
		key = append(key, '-')
		key = strconv.AppendInt(key, int64(e.B), 10)
		start := keys.Len()
		keys.Write(key)
		b := &blocks[k]
		b.Key = keys.String()[start:]
		// S0 members come first, then S1 members, each side in A, B order.
		pair := ids[2*k : 2*k+2 : 2*k+2]
		a1, b1 := inS1(c, e.A), inS1(c, e.B)
		pair[0], pair[1] = e.A, e.B
		if a1 && !b1 {
			pair[0], pair[1] = e.B, e.A
		}
		n0 := 2
		if a1 {
			n0--
		}
		if b1 {
			n0--
		}
		if n0 > 0 {
			b.S0 = pair[:n0:n0]
		}
		if n0 < 2 {
			b.S1 = pair[n0:]
		}
		out.Add(b)
	}
	return out
}

// inS1 reports whether id is a description of the second source.
func inS1(c *entity.Collection, id entity.ID) bool {
	d := c.Get(id)
	return d != nil && d.Source == 1
}

// PruneGraph applies the configured pruning scheme and returns the
// retained edges.
func (m *MetaBlocker) PruneGraph(g *graph.Graph, bs *blocking.Blocks) []graph.Edge {
	switch m.Prune {
	case WEP:
		return pruneWEP(g)
	case CEP:
		return pruneCEP(g, m.cepBudget(assignments(bs)))
	case WNP:
		return pruneWNP(g, m.Reciprocal)
	case CNP:
		return pruneCNP(g, cnpK(assignments(bs), g.NumNodes()), m.Reciprocal)
	default:
		return g.Edges()
	}
}

// assignments returns the total block assignments of bs: Σ |b|.
func assignments(bs *blocking.Blocks) int {
	n := 0
	for _, b := range bs.All() {
		n += b.Size()
	}
	return n
}

// cepBudget returns the CEP retention budget: K override, else half the
// total block assignments (the budget used in [22]).
func (m *MetaBlocker) cepBudget(assignments int) int {
	if m.K > 0 {
		return m.K
	}
	return max(1, assignments/2)
}

// cnpK distributes the CEP budget over the graph nodes: each node retains
// its top-k neighbors with k = max(1, ⌊assignments/|V|⌋).
func cnpK(assignments, nodes int) int {
	if nodes == 0 {
		return 1
	}
	return max(1, assignments/nodes)
}

func pruneWEP(g *graph.Graph) []graph.Edge {
	if g.NumEdges() == 0 {
		return nil
	}
	// The mean is accumulated exactly (exact.go), so it is independent of
	// summation order and bit-identical to the streaming DeltaPruner's
	// incrementally maintained mean — the property that makes delta
	// reconciliation provably equal to this full pass.
	edges := g.Edges()
	var sum exactSum
	for _, e := range edges {
		sum.Add(e.Weight)
	}
	n := len(edges)
	thr := sum.Mean(n)
	var out []graph.Edge
	for _, e := range edges {
		if sum.keepAtLeastMean(e.Weight, thr, n) {
			out = append(out, e)
		}
	}
	return out
}

func pruneCEP(g *graph.Graph, k int) []graph.Edge {
	edges := g.Edges()
	sort.SliceStable(edges, func(i, j int) bool { return edges[i].Weight > edges[j].Weight })
	if k > len(edges) {
		k = len(edges)
	}
	return edges[:k]
}

func pruneWNP(g *graph.Graph, reciprocal bool) []graph.Edge {
	// Neighborhood means are accumulated exactly (exact.go): independent of
	// edge order and bit-identical to the streaming DeltaPruner's per-node
	// sums, so an edge sitting exactly at a node's mean (common when all of
	// a node's edges share one weight) gets the same fate in every regime.
	edges := g.Edges()
	sum := make(map[entity.ID]*exactSum)
	acc := func(id entity.ID) *exactSum {
		s, ok := sum[id]
		if !ok {
			s = &exactSum{}
			sum[id] = s
		}
		return s
	}
	for _, e := range edges {
		acc(e.A).Add(e.Weight)
		acc(e.B).Add(e.Weight)
	}
	localThr := make(map[entity.ID]float64, len(sum))
	for id, s := range sum {
		localThr[id] = s.Mean(g.Degree(id))
	}
	var out []graph.Edge
	for _, e := range edges {
		inA := sum[e.A].keepAtLeastMean(e.Weight, localThr[e.A], g.Degree(e.A))
		inB := sum[e.B].keepAtLeastMean(e.Weight, localThr[e.B], g.Degree(e.B))
		if (reciprocal && inA && inB) || (!reciprocal && (inA || inB)) {
			out = append(out, e)
		}
	}
	return out
}

func pruneCNP(g *graph.Graph, k int, reciprocal bool) []graph.Edge {
	// Per-node weight rank: an edge is in the node's top-k if fewer than k
	// incident edges weigh strictly more (ties resolved by neighbor ID to
	// stay deterministic).
	topOf := func(id entity.ID) map[entity.ID]struct{} {
		ns := g.Neighbors(id)
		type nw struct {
			n entity.ID
			w float64
		}
		arr := make([]nw, 0, len(ns))
		for _, n := range ns {
			w, _ := g.Weight(id, n)
			arr = append(arr, nw{n, w})
		}
		sort.Slice(arr, func(i, j int) bool {
			if arr[i].w != arr[j].w {
				return arr[i].w > arr[j].w
			}
			return arr[i].n < arr[j].n
		})
		lim := k
		if lim > len(arr) {
			lim = len(arr)
		}
		set := make(map[entity.ID]struct{}, lim)
		for _, x := range arr[:lim] {
			set[x.n] = struct{}{}
		}
		return set
	}
	tops := make(map[entity.ID]map[entity.ID]struct{})
	var out []graph.Edge
	g.EachEdge(func(e graph.Edge) bool {
		ta, ok := tops[e.A]
		if !ok {
			ta = topOf(e.A)
			tops[e.A] = ta
		}
		tb, ok := tops[e.B]
		if !ok {
			tb = topOf(e.B)
			tops[e.B] = tb
		}
		_, inA := ta[e.B]
		_, inB := tb[e.A]
		if (reciprocal && inA && inB) || (!reciprocal && (inA || inB)) {
			out = append(out, e)
		}
		return true
	})
	return out
}
