package metablocking

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"entityres/internal/blocking"
	"entityres/internal/blockproc"
	"entityres/internal/datagen"
	"entityres/internal/entity"
	"entityres/internal/graph"
)

// oracle restructures bs through the materialized blocking graph: the
// reference the node-centric kernel must reproduce block for block.
func oracle(m *MetaBlocker, c *entity.Collection, bs *blocking.Blocks) *blocking.Blocks {
	return EmitKept(c, bs.Kind(), m.PruneGraph(BuildGraph(bs, m.Weight), bs))
}

// matrix lists every configuration: 5 weights × 4 prunes × Reciprocal ×
// the CEP budget override.
func matrix() []*MetaBlocker {
	var out []*MetaBlocker
	for _, w := range WeightSchemes() {
		for _, p := range PruneSchemes() {
			for _, rec := range []bool{false, true} {
				for _, k := range []int{0, 7} {
					out = append(out, &MetaBlocker{Weight: w, Prune: p, Reciprocal: rec, K: k})
				}
			}
		}
	}
	return out
}

// sameBlocks fails t unless got equals want exactly: the same blocks in the
// same order, each with the same Key, S0 and S1.
func sameBlocks(t testing.TB, what string, want, got *blocking.Blocks) {
	t.Helper()
	if want.Kind() != got.Kind() || want.Len() != got.Len() {
		t.Fatalf("%s: %v with %d blocks, want %v with %d", what, got.Kind(), got.Len(), want.Kind(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if w, g := want.Get(i), got.Get(i); !reflect.DeepEqual(w, g) {
			t.Fatalf("%s: block %d is %+v, want %+v", what, i, *g, *w)
		}
	}
}

// sameKept fails t unless the kernel kept exactly the oracle's edges, with
// bit-identical weights.
func sameKept(t testing.TB, what string, want, got []graph.Edge) {
	t.Helper()
	slices.SortFunc(want, edgeOrder)
	slices.SortFunc(got, edgeOrder)
	if len(want) != len(got) {
		t.Fatalf("%s: kept %d edges, want %d", what, len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.A != g.A || w.B != g.B || math.Float64bits(w.Weight) != math.Float64bits(g.Weight) {
			t.Fatalf("%s: kept edge %d is %+v, want %+v", what, i, g, w)
		}
	}
}

type kernelFixture struct {
	name string
	c    *entity.Collection
	bs   *blocking.Blocks
}

func kernelFixtures(t testing.TB) []kernelFixture {
	t.Helper()
	var out []kernelFixture
	for _, kind := range []entity.Kind{entity.Dirty, entity.CleanClean} {
		gen := datagen.GenerateDirty
		if kind == entity.CleanClean {
			gen = datagen.GenerateCleanClean
		}
		c, _, err := gen(datagen.Config{Entities: 150, Seed: 5, DupRatio: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := (&blocking.TokenBlocking{}).Block(c)
		if err != nil {
			t.Fatal(err)
		}
		cleaned := blockproc.Chain{&blockproc.MaxComparisonsPurge{Max: 200}, &blockproc.BlockFiltering{}}.Process(raw)
		out = append(out,
			kernelFixture{kind.String() + "-raw", c, raw},
			kernelFixture{kind.String() + "-cleaned", c, cleaned})
	}

	c := entity.NewCollection(entity.Dirty)
	for i := 0; i < 300; i++ {
		c.MustAdd(entity.NewDescription(""))
	}
	out = append(out, kernelFixture{"empty", c, blocking.NewBlocks(entity.Dirty)})

	single := blocking.NewBlocks(entity.Dirty)
	single.Add(&blocking.Block{Key: "one", S0: []entity.ID{4, 1, 3}})
	out = append(out, kernelFixture{"single-block", c, single})

	// A 5-cycle of pair blocks: every record sits in two blocks and has two
	// neighbours, so every edge weighs the same under every scheme and
	// every fate is decided on the exact-mean tie.
	ring := blocking.NewBlocks(entity.Dirty)
	for i := 0; i < 5; i++ {
		ring.Add(&blocking.Block{Key: fmt.Sprint("r", i), S0: []entity.ID{i, (i + 1) % 5}})
	}
	out = append(out, kernelFixture{"equal-weights", c, ring})

	// Sparse IDs in a collection far larger than the block members.
	sparse := blocking.NewBlocks(entity.Dirty)
	sparse.Add(&blocking.Block{Key: "a", S0: []entity.ID{299, 5, 150}})
	sparse.Add(&blocking.Block{Key: "b", S0: []entity.ID{150, 77}})
	sparse.Add(&blocking.Block{Key: "c", S0: []entity.ID{5, 77, 299, 201}})
	sparse.Add(&blocking.Block{Key: "d", S0: []entity.ID{201, 5}})
	out = append(out, kernelFixture{"sparse-ids", c, sparse})

	// Records 0 and 1 share blocks of 3, 4 and 7 members: their ARCS mass
	// 1/3 + 1/6 + 1/21 rounds differently unless summed in block order.
	arcs := blocking.NewBlocks(entity.Dirty)
	arcs.Add(&blocking.Block{Key: "x", S0: []entity.ID{0, 1, 2}})
	arcs.Add(&blocking.Block{Key: "y", S0: []entity.ID{3, 1, 0, 4}})
	arcs.Add(&blocking.Block{Key: "z", S0: []entity.ID{5, 6, 0, 7, 8, 1, 9}})
	out = append(out, kernelFixture{"arcs-order", c, arcs})
	return out
}

// TestRestructureEqualsGraphOracle: over every configuration and worker
// count, the node-centric kernel keeps exactly the edges, weights included,
// that PruneGraph keeps on the materialized graph, and renders exactly the
// same blocks. PruneGraph only reads the graph, and the graph depends on
// the fixture and the weight alone, so each is built once per pair.
// Restructure is RestructureParallel at one worker, a count the sweep runs.
func TestRestructureEqualsGraphOracle(t *testing.T) {
	for _, fx := range kernelFixtures(t) {
		if _, ok := blocking.IndexBlocks(fx.bs); !ok {
			t.Fatalf("%s: fixture outside the kernel's domain", fx.name)
		}
		graphs := make(map[WeightScheme]*graph.Graph)
		for _, m := range matrix() {
			g, ok := graphs[m.Weight]
			if !ok {
				g = BuildGraph(fx.bs, m.Weight)
				graphs[m.Weight] = g
			}
			wantKept := m.PruneGraph(g, fx.bs)
			want := EmitKept(fx.c, fx.bs.Kind(), slices.Clone(wantKept))
			what := fmt.Sprintf("%s %s K=%d", fx.name, m.Name(), m.K)
			for _, workers := range []int{1, 2, 3, 4, 0} {
				what := fmt.Sprintf("%s workers=%d", what, workers)
				kept, _ := m.keptEdges(fx.bs, workers)
				sameKept(t, what, wantKept, kept)
				sameBlocks(t, what, want, m.RestructureParallel(fx.c, fx.bs, workers))
			}
		}
	}
}

// TestRestructureParallelMatchesSequential: full meta-blocking parity for
// every weighting scheme, ARCS included, and every pruning scheme.
func TestRestructureParallelMatchesSequential(t *testing.T) {
	c, _, err := datagen.GenerateDirty(datagen.Config{Entities: 120, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	bs, err := (&blocking.TokenBlocking{}).Block(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, weight := range WeightSchemes() {
		for _, prune := range PruneSchemes() {
			m := &MetaBlocker{Weight: weight, Prune: prune}
			sameBlocks(t, m.Name(), m.Restructure(c, bs), m.RestructureParallel(c, bs, 4))
		}
	}
}

// TestRestructureOutsideKernelDomain: collections the entity index
// refuses still restructure exactly as the graph path does.
func TestRestructureOutsideKernelDomain(t *testing.T) {
	c := entity.NewCollection(entity.CleanClean)
	for i := 0; i < 6; i++ {
		d := entity.NewDescription("")
		d.Source = i & 1
		c.MustAdd(d)
	}
	repeated := blocking.NewBlocks(entity.Dirty)
	repeated.Add(&blocking.Block{Key: "a", S0: []entity.ID{0, 1, 1}})
	repeated.Add(&blocking.Block{Key: "b", S0: []entity.ID{1, 2}})
	bothSides := blocking.NewBlocks(entity.CleanClean)
	bothSides.Add(&blocking.Block{Key: "a", S0: []entity.ID{0, 2}, S1: []entity.ID{1}})
	bothSides.Add(&blocking.Block{Key: "b", S0: []entity.ID{3}, S1: []entity.ID{0}})
	emptied := blocking.NewBlocks(entity.Dirty)
	emptied.Add(&blocking.Block{Key: "a", S0: []entity.ID{0, 1}})
	emptied.Add(&blocking.Block{Key: "b", S0: []entity.ID{1, 2}})
	emptied.Get(1).S0 = emptied.Get(1).S0[:1]
	huge := blocking.NewBlocks(entity.Dirty)
	huge.Add(&blocking.Block{Key: "a", S0: []entity.ID{0, 1 << 20}})
	for name, bs := range map[string]*blocking.Blocks{"repeated": repeated, "both-sides": bothSides, "emptied": emptied, "huge-id": huge} {
		if _, ok := blocking.IndexBlocks(bs); ok {
			t.Fatalf("%s: entity index accepted a collection outside its domain", name)
		}
		for _, m := range matrix() {
			sameBlocks(t, name+" "+m.Name(), oracle(m, c, bs), m.RestructureParallel(c, bs, 2))
		}
	}
	for _, m := range []*MetaBlocker{{Weight: WeightScheme(9), Prune: WEP}, {Weight: CBS, Prune: PruneScheme(9)}} {
		sameBlocks(t, m.Name(), oracle(m, c, repeated), m.Restructure(c, repeated))
	}
}

// fuzzBlocks decodes bytes into a block collection over at most 64 IDs.
// The first byte picks the kind (bit 0: clean-clean) and whether blocks
// may repeat members or put a record on either side (bit 1); after it, a
// byte >= 0xC0 closes the current block and any other byte adds member
// x&63, on side (x>>6)&1 when sides are free and on the side of its
// source otherwise.
func fuzzBlocks(data []byte) (*entity.Collection, *blocking.Blocks) {
	kind, free := entity.Dirty, false
	if len(data) > 0 {
		if data[0]&1 != 0 {
			kind = entity.CleanClean
		}
		free = data[0]&2 != 0
		data = data[1:]
	}
	c := entity.NewCollection(kind)
	for i := 0; i < 64; i++ {
		d := entity.NewDescription("")
		if kind == entity.CleanClean {
			d.Source = i & 1
		}
		c.MustAdd(d)
	}
	bs := blocking.NewBlocks(kind)
	b := &blocking.Block{}
	in := map[entity.ID]bool{}
	for _, x := range data {
		if x >= 0xC0 {
			bs.Add(b)
			b, in = &blocking.Block{Key: fmt.Sprint(bs.Len())}, map[entity.ID]bool{}
			continue
		}
		id := int(x & 63)
		if in[id] && !free {
			continue
		}
		in[id] = true
		s1 := id&1 == 1
		if free {
			s1 = (x>>6)&1 == 1
		}
		if kind == entity.CleanClean && s1 {
			b.S1 = append(b.S1, id)
		} else {
			b.S0 = append(b.S0, id)
		}
	}
	bs.Add(b)
	return c, bs
}

// FuzzRestructure: for every scheme, the kernel keeps the graph oracle's
// edges and renders its blocks on arbitrary small dirty and clean-clean
// collections.
func FuzzRestructure(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0xC0, 2, 3, 4, 0xC0, 1, 4})
	f.Add([]byte{1, 0, 1, 2, 3, 0xC0, 2, 5, 0xC0, 4, 1, 7})
	f.Add([]byte{2, 1, 1, 2, 0xC0, 3, 4})
	f.Add([]byte{3, 1, 65, 2, 0xC0, 3, 66, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, bs := fuzzBlocks(data)
		for _, m := range matrix() {
			wantKept := m.PruneGraph(BuildGraph(bs, m.Weight), bs)
			want := EmitKept(c, bs.Kind(), slices.Clone(wantKept))
			for _, workers := range []int{1, 3} {
				what := fmt.Sprintf("%s K=%d workers=%d", m.Name(), m.K, workers)
				if kept, ok := m.keptEdges(bs, workers); ok {
					sameKept(t, what, wantKept, kept)
				}
				sameBlocks(t, what, want, m.RestructureParallel(c, bs, workers))
			}
		}
	})
}

// referenceEmit is EmitKept written plainly: a comparison sort, formatted
// keys and one allocation per block.
func referenceEmit(c *entity.Collection, kind entity.Kind, kept []graph.Edge) *blocking.Blocks {
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].Weight != kept[j].Weight {
			return kept[i].Weight > kept[j].Weight
		}
		if kept[i].A != kept[j].A {
			return kept[i].A < kept[j].A
		}
		return kept[i].B < kept[j].B
	})
	out := blocking.NewBlocks(kind)
	for _, e := range kept {
		b := &blocking.Block{Key: fmt.Sprintf("meta:%d-%d", e.A, e.B)}
		for _, id := range []entity.ID{e.A, e.B} {
			if d := c.Get(id); d != nil && d.Source == 1 {
				b.S1 = append(b.S1, id)
			} else {
				b.S0 = append(b.S0, id)
			}
		}
		out.Add(b)
	}
	return out
}

// TestEmitKeptMatchesReference: the emitter renders every edge shape —
// either endpoint in either source, endpoints outside the collection,
// tied weights — exactly as the plain reference does.
func TestEmitKeptMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, kind := range []entity.Kind{entity.Dirty, entity.CleanClean} {
		c := entity.NewCollection(kind)
		for i := 0; i < 40; i++ {
			d := entity.NewDescription("")
			if kind == entity.CleanClean {
				d.Source = rng.Intn(2)
			}
			c.MustAdd(d)
		}
		for _, n := range []int{0, 1, 300} {
			seen := map[entity.Pair]bool{}
			var kept []graph.Edge
			for len(kept) < n {
				p := entity.NewPair(rng.Intn(45), rng.Intn(45))
				if p.A == p.B || seen[p] {
					continue
				}
				seen[p] = true
				kept = append(kept, graph.Edge{A: p.A, B: p.B, Weight: float64(rng.Intn(4)) / 2})
			}
			want := referenceEmit(c, kind, slices.Clone(kept))
			sameBlocks(t, fmt.Sprintf("%v n=%d", kind, n), want, EmitKept(c, kind, kept))
		}
	}
}

// TestFixedSumMatchesExactSum: the limb accumulator holds exactly the sum
// exactSum holds, across the whole float64 range and through carries,
// and is empty again after each flush.
func TestFixedSumMatchesExactSum(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	draws := []func() float64{
		func() float64 { return float64(rng.Intn(50)) },
		func() float64 { return rng.Float64() * math.Log(1000) * math.Log(7) },
		func() float64 { return math.Ldexp(rng.Float64(), rng.Intn(2098)-1074) },  // finite, any exponent
		func() float64 { return math.Float64frombits(uint64(rng.Intn(1 << 20))) }, // subnormals
		func() float64 { return math.MaxFloat64 },
		func() float64 { return math.Nextafter(math.Ldexp(1, 64*rng.Intn(16)), 0) }, // all-ones mantissas at limb edges
	}
	// Two fixed rounds come first: weights that set every bit of limbs 17
	// to 19 and then one that carries through all three, and a weight whose
	// high limb overflows after 2^12 additions.
	var chain []float64
	for _, r := range [][2]int{{0, 53}, {53, 106}, {106, 159}, {159, 192}, {0, 1}} {
		chain = append(chain, math.Ldexp(math.Ldexp(1, r[1]-r[0])-1, 64*17+r[0]-weightScaleBits))
	}
	overflow := slices.Repeat([]float64{math.Ldexp(math.Ldexp(1, 53)-1, 64*17+63-weightScaleBits)}, 1<<13)
	var f fixedSum
	for round := 0; round < 200; round++ {
		var want, got exactSum
		var adds []float64
		switch round {
		case 0:
			adds = chain
		case 1:
			adds = overflow
		default:
			for n := rng.Intn(300); n > 0; n-- {
				adds = append(adds, draws[rng.Intn(len(draws))]())
			}
		}
		for _, w := range adds {
			want.Add(w)
			f.Add(w)
		}
		f.flush(&got)
		if want.acc.Cmp(&got.acc) != 0 {
			t.Fatalf("round %d: limb sum %v, want %v", round, &got.acc, &want.acc)
		}
		if f != (fixedSum{}) {
			t.Fatalf("round %d: flush left the accumulator non-empty", round)
		}
	}
}
