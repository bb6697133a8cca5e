package blockproc

import (
	"strings"
	"testing"

	"entityres/internal/blocking"
	"entityres/internal/entity"
)

func mkBlocks(kind entity.Kind, sizes ...int) *blocking.Blocks {
	bs := blocking.NewBlocks(kind)
	next := 0
	for i, n := range sizes {
		b := &blocking.Block{Key: string(rune('a' + i))}
		for j := 0; j < n; j++ {
			b.S0 = append(b.S0, next)
			next++
		}
		bs.Add(b)
	}
	return bs
}

func TestMaxComparisonsPurge(t *testing.T) {
	bs := mkBlocks(entity.Dirty, 2, 3, 10) // comparisons: 1, 3, 45
	out := (&MaxComparisonsPurge{Max: 3}).Process(bs)
	if out.Len() != 2 {
		t.Fatalf("blocks after purge = %d", out.Len())
	}
	if out.TotalComparisons() != 4 {
		t.Fatalf("comparisons after purge = %d", out.TotalComparisons())
	}
	if !strings.Contains((&MaxComparisonsPurge{Max: 3}).Name(), "3") {
		t.Fatal("Name should mention threshold")
	}
}

func TestAutoPurgeCutoff(t *testing.T) {
	// 10 small blocks of 2 (ratio 0.5 comparisons/assignment) + 1 huge
	// block of 40 (jumps the cumulative ratio to ~13): cutoff lands before
	// the jump and only small blocks survive.
	sizes := make([]int, 0, 11)
	for i := 0; i < 10; i++ {
		sizes = append(sizes, 2)
	}
	sizes = append(sizes, 40)
	bs := mkBlocks(entity.Dirty, sizes...)
	p := &AutoPurge{}
	if cut := p.Cutoff(bs); cut != 1 {
		t.Fatalf("cutoff = %d, want 1", cut)
	}
	out := p.Process(bs)
	if out.Len() != 10 {
		t.Fatalf("blocks after autopurge = %d", out.Len())
	}
}

func TestAutoPurgeUniformBlocksKeptWhole(t *testing.T) {
	bs := mkBlocks(entity.Dirty, 3, 3, 3, 3)
	if got := (&AutoPurge{}).Process(bs).Len(); got != 4 {
		t.Fatalf("uniform collection purged: %d blocks", got)
	}
	// A generous smooth factor also keeps a mildly skewed collection.
	skew := mkBlocks(entity.Dirty, 2, 2, 3)
	if got := (&AutoPurge{SmoothFactor: 10}).Process(skew).Len(); got != 3 {
		t.Fatalf("generous factor purged: %d blocks", got)
	}
}

func TestAutoPurgeDefaultsAndEmpty(t *testing.T) {
	p := &AutoPurge{}
	empty := blocking.NewBlocks(entity.Dirty)
	if cut := p.Cutoff(empty); cut != 0 {
		t.Fatalf("empty cutoff = %d", cut)
	}
	if got := p.Process(empty).Len(); got != 0 {
		t.Fatalf("empty processed = %d", got)
	}
	if p.Name() != "autopurge" {
		t.Fatal("name")
	}
}

func TestAutoPurgeDropsStopwordBlock(t *testing.T) {
	// Realistic shape: many selective blocks plus one stopword block
	// containing everything. Default settings must drop the giant.
	bs := blocking.NewBlocks(entity.Dirty)
	giant := &blocking.Block{Key: "the"}
	for i := 0; i < 100; i++ {
		giant.S0 = append(giant.S0, i)
	}
	for i := 0; i < 99; i++ {
		bs.Add(&blocking.Block{Key: "k" + string(rune(i)), S0: []entity.ID{i, i + 1}})
	}
	bs.Add(giant)
	out := (&AutoPurge{}).Process(bs)
	for _, b := range out.All() {
		if b.Key == "the" {
			t.Fatal("stopword block survived autopurge")
		}
	}
	if out.Len() != 99 {
		t.Fatalf("selective blocks lost: %d", out.Len())
	}
}

func TestSizePurgeDropsFractionallyLargeBlocks(t *testing.T) {
	bs := blocking.NewBlocks(entity.Dirty)
	big := &blocking.Block{Key: "big"}
	for i := 0; i < 50; i++ {
		big.S0 = append(big.S0, i)
	}
	bs.Add(big)
	bs.Add(&blocking.Block{Key: "small", S0: []entity.ID{0, 1, 2}})
	out := (&SizePurge{Fraction: 0.1}).Process(bs) // limit = 5 of 50 distinct
	if out.Len() != 1 || out.Get(0).Key != "small" {
		t.Fatalf("SizePurge kept %d blocks", out.Len())
	}
	if (&SizePurge{}).Name() != "sizepurge" {
		t.Fatal("name")
	}
}

func TestSizePurgeKeepsPairBlocks(t *testing.T) {
	// Even with a tiny fraction, two-description blocks survive (limit
	// floors at 2).
	bs := blocking.NewBlocks(entity.Dirty)
	bs.Add(&blocking.Block{Key: "pair", S0: []entity.ID{0, 1}})
	out := (&SizePurge{Fraction: 0.0001}).Process(bs)
	if out.Len() != 1 {
		t.Fatal("pair block purged")
	}
}

func TestSizePurgeEmptyCollection(t *testing.T) {
	out := (&SizePurge{}).Process(blocking.NewBlocks(entity.Dirty))
	if out.Len() != 0 {
		t.Fatal("empty collection")
	}
}

func TestBlockFilteringRemovesBloatedMemberships(t *testing.T) {
	// Entity 0 appears in one tiny and one huge block; ratio 0.5 keeps it
	// only in the tiny one.
	bs := blocking.NewBlocks(entity.Dirty)
	bs.Add(&blocking.Block{Key: "tiny", S0: []entity.ID{0, 1}})
	huge := &blocking.Block{Key: "huge", S0: []entity.ID{0, 1, 2, 3, 4, 5}}
	bs.Add(huge)
	out := (&BlockFiltering{Ratio: 0.5}).Process(bs)
	for _, b := range out.All() {
		if b.Key == "huge" {
			for _, id := range b.S0 {
				if id == 0 || id == 1 {
					t.Fatalf("entity %d kept in huge block", id)
				}
			}
		}
	}
	// Entities 2..5 keep their single block.
	if out.TotalComparisons() >= bs.TotalComparisons() {
		t.Fatal("filtering should reduce comparisons")
	}
}

func TestBlockFilteringKeepsAtLeastOne(t *testing.T) {
	bs := mkBlocks(entity.Dirty, 2)
	out := (&BlockFiltering{Ratio: 0.01}).Process(bs)
	if out.Len() != 1 {
		t.Fatalf("sole block lost: %d", out.Len())
	}
}

func TestChain(t *testing.T) {
	bs := mkBlocks(entity.Dirty, 2, 3, 10)
	ch := Chain{&MaxComparisonsPurge{Max: 10}, &BlockFiltering{Ratio: 1}}
	out := ch.Process(bs)
	if out.Len() != 2 {
		t.Fatalf("chain output blocks = %d", out.Len())
	}
	name := ch.Name()
	if !strings.HasPrefix(name, "chain(") || !strings.Contains(name, "filter") {
		t.Fatalf("chain name = %q", name)
	}
}
