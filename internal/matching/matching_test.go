package matching

import (
	"context"
	"strings"
	"testing"

	"entityres/internal/blocking"
	"entityres/internal/entity"
)

func twoPeople(t *testing.T) (*entity.Collection, *entity.Description, *entity.Description) {
	t.Helper()
	c := entity.NewCollection(entity.Dirty)
	a := entity.NewDescription("").Add("name", "alice smith").Add("city", "paris")
	b := entity.NewDescription("").Add("label", "alice smith").Add("location", "paris")
	c.MustAdd(a)
	c.MustAdd(b)
	c.MustAdd(entity.NewDescription("").Add("name", "bob jones").Add("city", "rome"))
	return c, a, b
}

func TestTokenJaccard(t *testing.T) {
	_, a, b := twoPeople(t)
	tj := &TokenJaccard{}
	if got := tj.Sim(a, b); got != 1 {
		t.Fatalf("schema-agnostic jaccard = %v", got)
	}
	if tj.Name() == "" {
		t.Fatal("name")
	}
}

func TestTFIDFCosineWeighsRareTokens(t *testing.T) {
	c := entity.NewCollection(entity.Dirty)
	// "smith" is ubiquitous; "zanzibar" is rare.
	c.MustAdd(entity.NewDescription("").Add("n", "smith zanzibar"))
	c.MustAdd(entity.NewDescription("").Add("n", "smith zanzibar"))
	c.MustAdd(entity.NewDescription("").Add("n", "smith common"))
	c.MustAdd(entity.NewDescription("").Add("n", "smith common"))
	tc := NewTFIDFCosine(c, nil)
	simRare := tc.Sim(c.Get(0), c.Get(1))  // share rare token
	simSplit := tc.Sim(c.Get(0), c.Get(2)) // share only frequent token
	if !(simRare > simSplit) {
		t.Fatalf("rare-token pair should score higher: %v vs %v", simRare, simSplit)
	}
	// Cache should serve repeated calls identically.
	if tc.Sim(c.Get(0), c.Get(1)) != simRare {
		t.Fatal("cache changed the score")
	}
}

func TestBestValueJW(t *testing.T) {
	a := entity.NewDescription("").Add("name", "katherine").Add("x", "zzz")
	b := entity.NewDescription("").Add("label", "catherine")
	m := &BestValueJW{}
	if got := m.Sim(a, b); got < 0.85 {
		t.Fatalf("BestValueJW = %v", got)
	}
	restricted := &BestValueJW{Attrs: []string{"x"}}
	if got := restricted.Sim(a, b); got != 0 {
		t.Fatalf("restricted sim = %v (no values on b side)", got)
	}
}

func TestWeighted(t *testing.T) {
	_, a, b := twoPeople(t)
	w := &Weighted{Parts: []WeightedPart{
		{Measure: &TokenJaccard{}, Weight: 3},
		{Measure: &BestValueJW{}, Weight: 1},
		{Measure: &TokenJaccard{}, Weight: 0}, // ignored
	}}
	got := w.Sim(a, b)
	if got <= 0.9 || got > 1 {
		t.Fatalf("weighted = %v", got)
	}
	empty := &Weighted{}
	if empty.Sim(a, b) != 0 {
		t.Fatal("empty weighted should be 0")
	}
}

func TestMatcherDecision(t *testing.T) {
	_, a, b := twoPeople(t)
	m := &Matcher{Sim: &TokenJaccard{}, Threshold: 0.8}
	ok, s := m.Match(a, b)
	if !ok || s != 1 {
		t.Fatalf("Match = %v, %v", ok, s)
	}
	strict := &Matcher{Sim: &TokenJaccard{}, Threshold: 1.01}
	if ok, _ := strict.Match(a, b); ok {
		t.Fatal("impossible threshold matched")
	}
	if !strings.Contains(m.Name(), "token-jaccard@0.80") {
		t.Fatalf("Name = %q", m.Name())
	}
}

func TestResolveBlocks(t *testing.T) {
	c, _, _ := twoPeople(t)
	bs := blocking.NewBlocks(entity.Dirty)
	bs.Add(&blocking.Block{Key: "k", S0: []entity.ID{0, 1, 2}})
	m := &Matcher{Sim: &TokenJaccard{}, Threshold: 0.8}
	res := ResolveBlocks(c, bs, m)
	if res.Comparisons != 3 {
		t.Fatalf("comparisons = %d", res.Comparisons)
	}
	if res.Matches.Len() != 1 || !res.Matches.Contains(0, 1) {
		t.Fatalf("matches = %v", res.Matches.Pairs())
	}
}

func TestResolvePairs(t *testing.T) {
	c, _, _ := twoPeople(t)
	m := &Matcher{Sim: &TokenJaccard{}, Threshold: 0.8}
	res, err := ResolvePairs(context.Background(), c, []entity.Pair{entity.NewPair(0, 1), entity.NewPair(0, 2)}, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Comparisons != 2 || res.Matches.Len() != 1 {
		t.Fatalf("result = %+v", res)
	}
}
