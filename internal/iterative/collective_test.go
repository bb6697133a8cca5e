package iterative

import (
	"context"
	"testing"

	"entityres/internal/blocking"
	"entityres/internal/datagen"
	"entityres/internal/entity"
	"entityres/internal/evaluation"
	"entityres/internal/matching"
	"entityres/internal/token"
)

// buildingsAndArchitects reproduces the paper's motivating example: a pair
// of building descriptions is matched once their architects match.
func buildingsAndArchitects(t *testing.T) (*entity.Collection, []entity.Pair) {
	t.Helper()
	c := entity.NewCollection(entity.CleanClean)
	arch0 := entity.NewDescription("http://kb0/arch/1").Add("name", "antoni gaudi cornet")
	b0 := entity.NewDescription("http://kb0/bldg/1").
		Add("label", "casa batllo barcelona").
		Add("architect", "http://kb0/arch/1")
	c.MustAdd(arch0)
	c.MustAdd(b0)
	arch1 := entity.NewDescription("http://kb1/arch/1").Add("label", "antoni gaudi")
	arch1.Source = 1
	b1 := entity.NewDescription("http://kb1/bldg/1").
		Add("name", "the batllo house").
		Add("designer", "http://kb1/arch/1")
	b1.Source = 1
	c.MustAdd(arch1)
	c.MustAdd(b1)
	candidates := []entity.Pair{
		entity.NewPair(0, 2), // architects
		entity.NewPair(1, 3), // buildings
	}
	return c, candidates
}

func TestCollectiveResolvesViaRelations(t *testing.T) {
	c, candidates := buildingsAndArchitects(t)
	// Reference values are relational evidence, not text: skip them in the
	// attribute similarity.
	prof := &token.Profiler{
		Scheme:        token.SchemaAgnostic,
		Stopwords:     token.DefaultStopwords(),
		SkipRefValues: true,
	}
	base := &matching.TokenJaccard{Profiler: prof}
	// The buildings share only "batllo": base sim 1/4. The architects
	// share 2 of 3 tokens: 2/3.
	co := &Collective{Base: base, Alpha: 0.5, Threshold: 0.3}
	res := co.Resolve(c, candidates)
	if !res.Matches.Contains(0, 2) {
		t.Fatal("architect pair must match on attributes")
	}
	if !res.Matches.Contains(1, 3) {
		t.Fatal("building pair must match via relational evidence")
	}
	// Attribute-only baseline misses the buildings.
	baseOnly, _ := matching.ResolvePairs(context.Background(), c, candidates, &matching.Matcher{Sim: base, Threshold: 0.3}, 1)
	if baseOnly.Matches.Contains(1, 3) {
		t.Fatal("precondition: attribute-only should miss the building pair")
	}
}

func TestCollectiveWithoutRelationsEqualsBase(t *testing.T) {
	c := entity.NewCollection(entity.Dirty)
	c.MustAdd(entity.NewDescription("").Add("n", "alpha beta"))
	c.MustAdd(entity.NewDescription("").Add("n", "alpha beta"))
	c.MustAdd(entity.NewDescription("").Add("n", "gamma delta"))
	cands := []entity.Pair{entity.NewPair(0, 1), entity.NewPair(0, 2)}
	co := &Collective{Base: &matching.TokenJaccard{}, Alpha: 0.4, Threshold: 0.55}
	res := co.Resolve(c, cands)
	// (0,1): (1-0.4)*1 = 0.6 ≥ 0.55 → match; (0,2): 0 → no.
	if !res.Matches.Contains(0, 1) || res.Matches.Contains(0, 2) {
		t.Fatalf("matches = %v", res.Matches.Pairs())
	}
}

func TestCollectiveOnBibliographic(t *testing.T) {
	c, gt, err := datagen.GenerateBibliographic(datagen.Config{
		Seed: 17, Entities: 40, DupRatio: 0.8,
		Corruption: &datagen.Corruption{Typo: 0.3, TokenDrop: 0.4, TokenSwap: 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	bs, err := (&blocking.TokenBlocking{}).Block(c)
	if err != nil {
		t.Fatal(err)
	}
	candidates := bs.DistinctPairs().Pairs()
	prof := &token.Profiler{
		Scheme:        token.SchemaAgnostic,
		Stopwords:     token.DefaultStopwords(),
		SkipRefValues: true,
	}
	base := &matching.TokenJaccard{Profiler: prof}
	const threshold = 0.55
	baseline, _ := matching.ResolvePairs(context.Background(), c, candidates, &matching.Matcher{Sim: base, Threshold: threshold}, 1)
	co := &Collective{Base: base, Alpha: 0.3, Threshold: threshold}
	collective := co.Resolve(c, candidates)
	prfBase := evaluation.ComparePairs(baseline.Matches, gt)
	prfColl := evaluation.ComparePairs(collective.Matches, gt)
	if prfColl.Recall <= prfBase.Recall {
		t.Fatalf("collective recall %v should beat attribute-only %v",
			prfColl.Recall, prfBase.Recall)
	}
	if prfColl.F1 < prfBase.F1 {
		t.Fatalf("collective F1 %v regressed vs %v", prfColl.F1, prfBase.F1)
	}
}

func TestRelationIndex(t *testing.T) {
	c := entity.NewCollection(entity.Dirty)
	a := entity.NewDescription("http://kb/a").Add("knows", "http://kb/b").Add("name", "x")
	b := entity.NewDescription("http://kb/b").Add("knows", "http://kb/missing")
	c.MustAdd(a)
	c.MustAdd(b)
	idx := RelationIndex(c)
	if len(idx[0]) != 1 || idx[0][0] != 1 {
		t.Fatalf("idx[0] = %v", idx[0])
	}
	if len(idx[1]) != 0 {
		t.Fatalf("dangling ref resolved: %v", idx[1])
	}
}

func TestRelationIndexIgnoresSelfAndDuplicates(t *testing.T) {
	c := entity.NewCollection(entity.Dirty)
	a := entity.NewDescription("urn:x").
		Add("r", "urn:x").
		Add("r", "urn:y").
		Add("r", "urn:y")
	b := entity.NewDescription("urn:y")
	b.Add("name", "y")
	c.MustAdd(a)
	c.MustAdd(b)
	idx := RelationIndex(c)
	if len(idx[0]) != 1 || idx[0][0] != 1 {
		t.Fatalf("idx[0] = %v", idx[0])
	}
}
