package metablocking

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"entityres/internal/blocking"
	"entityres/internal/datagen"
	"entityres/internal/entity"
	"entityres/internal/graph"
)

// The delta-pruning acceptance property: a DeltaPruner riding a live
// WeightedGraph under random membership churn commits, at every
// checkpoint, exactly the kept set a full PruneGraph pass derives over a
// fresh materialization of the same graph — same pairs, same weights, bit
// for bit. The matrix crosses seeds, the stream-safe weight schemes
// (CBS/ECBS/JS), both stream-safe prune schemes (WEP/WNP, plus WNP's
// reciprocal variant) and three churn mixes (add-heavy, balanced,
// remove-heavy), so every candidate-expansion path — dirty pairs, dirty
// neighborhoods, the ECBS full-degrade, WEP's threshold band, WNP's moved
// nodes — is exercised against the exhaustive rescan.

// deltaChurnMix weights the add/remove coin of the churn driver.
type deltaChurnMix struct {
	name      string
	addWeight int // of 10: chance an absent description is (re-)added
}

var deltaChurnMixes = []deltaChurnMix{
	{name: "add-heavy", addWeight: 8},
	{name: "balanced", addWeight: 5},
	{name: "remove-heavy", addWeight: 3},
}

// keptMap renders a kept-edge slice as pair → weight for exact comparison.
func keptMap(edges []graph.Edge) map[entity.Pair]float64 {
	m := make(map[entity.Pair]float64, len(edges))
	for _, e := range edges {
		m[entity.NewPair(e.A, e.B)] = e.Weight
	}
	return m
}

// assertKeptEquals compares two kept sets with bit-exact weights.
func assertKeptEquals(t *testing.T, step int, got, want map[entity.Pair]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("step %d: delta pruner kept %d edges, full PruneGraph %d", step, len(got), len(want))
	}
	for p, ww := range want {
		gw, ok := got[p]
		if !ok {
			t.Fatalf("step %d: full PruneGraph keeps %v (w=%v), delta pruner dropped it", step, p, ww)
		}
		if math.Float64bits(gw) != math.Float64bits(ww) {
			t.Fatalf("step %d: kept weight of %v diverges: delta %v, full %v", step, p, gw, ww)
		}
	}
}

// runDeltaVsFull drives one scenario: 300 churn steps over a 50-entity
// pool, checkpointing every 20 steps.
func runDeltaVsFull(t *testing.T, seed int64, m MetaBlocker, mix deltaChurnMix) {
	c, _, err := datagen.GenerateDirty(datagen.Config{Seed: seed, Entities: 50, DupRatio: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	sb := &blocking.TokenBlocking{}
	keyer := sb.StreamKeyer()
	bi := blocking.NewBlockIndex(entity.Dirty)
	wg := NewWeightedGraph(entity.Dirty)
	bi.Observe(wg)
	p := NewDeltaPruner(wg, m)

	rng := rand.New(rand.NewSource(seed * 7919))
	descs := c.All()
	live := make(map[entity.ID]bool)
	for step := 1; step <= 300; step++ {
		d := descs[rng.Intn(len(descs))]
		switch {
		case live[d.ID] && rng.Intn(10) >= mix.addWeight:
			bi.Remove(d.ID)
			live[d.ID] = false
		case !live[d.ID]:
			if err := bi.Add(d.ID, d.Source, keyer(d)); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			live[d.ID] = true
		}
		if step%20 != 0 && step != 300 {
			continue
		}
		refates := p.Sync()
		for _, f := range refates {
			// Sync only reports consequential refates, and WasKept must
			// reflect the committed set — a wrong baseline would desync
			// Apply from the resolver's match-graph patch.
			if !f.WasKept && !f.Kept {
				t.Fatalf("step %d: inconsequential refate %+v reported", step, f)
			}
		}
		p.Apply(refates)
		want := keptMap(m.PruneGraph(wg.Graph(m.Weight), nil))
		assertKeptEquals(t, step, keptMap(p.KeptEdges()), want)
		assertAdjacency(t, step, p)
		// Quiescence: with nothing changed since Apply, the next Sync has
		// no candidates at all.
		if extra := p.Sync(); len(extra) != 0 {
			t.Fatalf("step %d: quiescent Sync re-derived %d refates", step, len(extra))
		}
	}
}

// assertAdjacency checks that the pruner mirrors adjacency exactly for the
// schemes that read it (JS, ECBS, WNP), and then mirrors every weighted
// edge in both directions and nothing else; CBS with WEP keeps none.
func assertAdjacency(t *testing.T, step int, p *DeltaPruner) {
	t.Helper()
	if p.m.Weight == CBS && p.m.Prune == WEP {
		if p.adj != nil {
			t.Fatalf("step %d: CBS/WEP pruner mirrors adjacency of %d nodes", step, len(p.adj))
		}
		return
	}
	half := 0
	for _, ns := range p.adj {
		half += len(ns)
	}
	if half != 2*len(p.weights) {
		t.Fatalf("step %d: adjacency holds %d half-edges for %d weighted edges", step, half, len(p.weights))
	}
	for pr := range p.weights {
		_, ab := p.adj[pr.A][pr.B]
		_, ba := p.adj[pr.B][pr.A]
		if !ab || !ba {
			t.Fatalf("step %d: adjacency misses weighted edge (%d,%d)", step, pr.A, pr.B)
		}
	}
}

func TestDeltaPrunerEqualsFullPruneGraph(t *testing.T) {
	weights := []WeightScheme{CBS, ECBS, JS}
	prunes := []MetaBlocker{
		{Prune: WEP},
		{Prune: WNP},
		{Prune: WNP, Reciprocal: true},
	}
	for _, seed := range []int64{11, 12, 13} {
		for _, w := range weights {
			for _, pr := range prunes {
				m := pr
				m.Weight = w
				mix := deltaChurnMixes[int(seed)%len(deltaChurnMixes)]
				name := fmt.Sprintf("seed%d/%s/%s", seed, m.Name(), mix.name)
				seed := seed
				t.Run(name, func(t *testing.T) {
					if testing.Short() && seed != 11 {
						t.Skip("short mode runs one seed")
					}
					t.Parallel()
					runDeltaVsFull(t, seed, m, mix)
				})
			}
		}
	}
}

// TestDeltaPrunerSeedBaseline: a pruner seeded with a committed kept set
// (snapshot restore, shard bootstrap) diffs its first derivation against
// that baseline — stale seeded pairs surface as removal refates and the
// committed set still lands on the full PruneGraph result.
func TestDeltaPrunerSeedBaseline(t *testing.T) {
	c, _, err := datagen.GenerateDirty(datagen.Config{Seed: 21, Entities: 40, DupRatio: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	m := MetaBlocker{Weight: CBS, Prune: WEP}
	sb := &blocking.TokenBlocking{}
	keyer := sb.StreamKeyer()
	bi := blocking.NewBlockIndex(entity.Dirty)
	wg := NewWeightedGraph(entity.Dirty)
	bi.Observe(wg)
	for _, d := range c.All()[:25] {
		if err := bi.Add(d.ID, d.Source, keyer(d)); err != nil {
			t.Fatal(err)
		}
	}
	p := NewDeltaPruner(wg, m)
	// Baseline: the true kept set of the first 20 documents' graph, plus a
	// fabricated stale edge between handles that never co-occur.
	baseline := m.PruneGraph(wg.Graph(m.Weight), nil)
	stale := graph.Edge{A: 9990, B: 9991, Weight: 1}
	p.Seed(append(append([]graph.Edge(nil), baseline...), stale))

	refates := p.Sync()
	sawStaleRemoval := false
	for _, f := range refates {
		if f.Pair == entity.NewPair(stale.A, stale.B) {
			if f.InGraph || f.Kept || !f.WasKept {
				t.Fatalf("stale seeded pair refated as %+v, want removal", f)
			}
			sawStaleRemoval = true
		}
	}
	if !sawStaleRemoval {
		t.Fatal("stale seeded pair produced no removal refate")
	}
	p.Apply(refates)
	assertKeptEquals(t, 0, keptMap(p.KeptEdges()), keptMap(m.PruneGraph(wg.Graph(m.Weight), nil)))
}
