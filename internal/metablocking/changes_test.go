package metablocking

import (
	"testing"

	"entityres/internal/blocking"
	"entityres/internal/entity"
)

// TestDeltaPrunerAccessorsAndRequeue pins the pruner's bookkeeping
// surface — Pending/Examined/KeptCount — and the Requeue contract: pairs
// returned after a failed evaluation are re-derived identically by the
// next Sync. The scenario's three same-token descriptions weigh every
// edge exactly at the WEP mean, exercising the exact tie verdict.
func TestDeltaPrunerAccessorsAndRequeue(t *testing.T) {
	m := MetaBlocker{Weight: CBS, Prune: WEP}
	sb := &blocking.TokenBlocking{}
	keyer := sb.StreamKeyer()
	bi := blocking.NewBlockIndex(entity.Dirty)
	wg := NewWeightedGraph(entity.Dirty)
	bi.Observe(wg)
	p := NewDeltaPruner(wg, m)
	if p.Pending() {
		t.Fatal("fresh pruner reports pending work")
	}
	for i, uri := range []string{"u:a", "u:b", "u:c"} {
		d := &entity.Description{ID: entity.ID(i), URI: uri,
			Attrs: []entity.Attribute{{Name: "name", Value: "samename"}}}
		if err := bi.Add(d.ID, d.Source, keyer(d)); err != nil {
			t.Fatal(err)
		}
	}
	if !p.Pending() {
		t.Fatal("tracked mutations not pending")
	}
	refates := p.Sync()
	if len(refates) != 3 {
		t.Fatalf("Sync derived %d refates, want the 3 tied pairs", len(refates))
	}
	examined := p.Examined()
	if examined <= 0 {
		t.Fatal("Sync examined nothing")
	}
	for _, f := range refates {
		// Every pair's weight sits exactly on the WEP mean; the exact tie
		// verdict keeps them (mean membership is inclusive).
		if !f.Kept {
			t.Fatalf("tied pair %+v dropped", f)
		}
	}

	// A failed evaluation hands the fates back; the unchanged graph and
	// kept set must re-derive them identically.
	p.Requeue(refates)
	if !p.Pending() {
		t.Fatal("requeued pairs not pending")
	}
	again := p.Sync()
	if p.Examined() <= examined {
		t.Fatal("re-derivation not counted as examined work")
	}
	want := map[entity.Pair]Refate{}
	for _, f := range refates {
		want[f.Pair] = f
	}
	if len(again) != len(want) {
		t.Fatalf("re-derived %d refates, want %d", len(again), len(want))
	}
	for _, f := range again {
		if want[f.Pair] != f {
			t.Fatalf("re-derived fate diverged: %+v vs %+v", f, want[f.Pair])
		}
	}
	p.Apply(again)
	if p.KeptCount() != 3 || p.KeptCount() != len(p.KeptEdges()) {
		t.Fatalf("KeptCount %d disagrees with KeptEdges %d", p.KeptCount(), len(p.KeptEdges()))
	}
}

// TestExactSumZeroAndReset: the exact accumulator cancels bit-for-bit and
// empties on Reset — the invariants the incremental WEP mean rides on.
func TestExactSumZeroAndReset(t *testing.T) {
	var s exactSum
	if !s.IsZero() {
		t.Fatal("zero-value sum not zero")
	}
	s.Add(0.1)
	s.Add(0.2)
	if s.IsZero() {
		t.Fatal("non-empty sum reports zero")
	}
	s.Sub(0.2)
	s.Sub(0.1)
	if !s.IsZero() {
		t.Fatal("exact cancellation left a residue")
	}
	s.Add(1.5)
	s.Reset()
	if !s.IsZero() {
		t.Fatal("Reset left a residue")
	}
}
