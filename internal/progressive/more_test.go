package progressive

import (
	"testing"

	"entityres/internal/blocking"
	"entityres/internal/entity"
	"entityres/internal/graph"
	"entityres/internal/matching"
)

func TestStaticOrderRemaining(t *testing.T) {
	_, bs := sampleBlocks(t)
	s := NewStaticOrder(bs)
	total := s.Remaining()
	if total == 0 {
		t.Fatal("empty schedule")
	}
	s.Next()
	if s.Remaining() != total-1 {
		t.Fatalf("Remaining = %d, want %d", s.Remaining(), total-1)
	}
}

func TestHierarchyDefaultLevels(t *testing.T) {
	c := entity.NewCollection(entity.Dirty)
	for _, v := range []string{"aaaa bbbb", "aaaa bbbc", "zzzz"} {
		c.MustAdd(entity.NewDescription("").Add("n", v))
	}
	h := NewHierarchy(c, blocking.SortedTokensKey(nil), nil)
	pairs := drain(h)
	// Default levels end at prefix 0 (root): all pairs eventually.
	if len(pairs) != 3 {
		t.Fatalf("pairs = %d", len(pairs))
	}
	if pairs[0] != entity.NewPair(0, 1) {
		t.Fatalf("most similar pair must come first: %v", pairs[0])
	}
}

func TestSlidingWindowTinyInputs(t *testing.T) {
	c := entity.NewCollection(entity.Dirty)
	c.MustAdd(entity.NewDescription("").Add("n", "only"))
	s := NewSlidingWindow(c, blocking.SortedTokensKey(nil), 0)
	if _, ok := s.Next(); ok {
		t.Fatal("singleton collection emitted a pair")
	}
	empty := entity.NewCollection(entity.Dirty)
	s2 := NewSlidingWindow(empty, blocking.SortedTokensKey(nil), 0)
	if _, ok := s2.Next(); ok {
		t.Fatal("empty collection emitted a pair")
	}
}

func TestBenefitCostEmptyGraph(t *testing.T) {
	bc := NewBenefitCost(graph.New(), 0, 0)
	if _, ok := bc.Next(); ok {
		t.Fatal("empty graph emitted")
	}
	// Defaults applied.
	if bc.WindowSize != 64 || bc.Boost != 1.0 {
		t.Fatalf("defaults = %d, %v", bc.WindowSize, bc.Boost)
	}
}

func TestRunStopsWhenScheduleEnds(t *testing.T) {
	c := entity.NewCollection(entity.Dirty)
	c.MustAdd(entity.NewDescription("").Add("n", "a b"))
	c.MustAdd(entity.NewDescription("").Add("n", "a b"))
	bs, err := (&blocking.TokenBlocking{}).Block(c)
	if err != nil {
		t.Fatal(err)
	}
	m := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
	gt := entity.NewMatches()
	gt.Add(0, 1)
	res := runOne(t, c, NewStaticOrder(bs), m, gt, 1<<40)
	if res.Comparisons != 1 {
		t.Fatalf("comparisons = %d", res.Comparisons)
	}
	if res.Curve.Final().Recall != 1 {
		t.Fatalf("recall = %v", res.Curve.Final().Recall)
	}
}

func TestRunEmptyGroundTruthCurve(t *testing.T) {
	c := entity.NewCollection(entity.Dirty)
	c.MustAdd(entity.NewDescription("").Add("n", "alpha"))
	c.MustAdd(entity.NewDescription("").Add("n", "alpha"))
	bs, err := (&blocking.TokenBlocking{}).Block(c)
	if err != nil {
		t.Fatal(err)
	}
	m := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
	res := runOne(t, c, NewStaticOrder(bs), m, entity.NewMatches(), 10)
	if res.Curve.Final().Recall != 0 {
		t.Fatal("recall against empty gt must be 0")
	}
	if res.Matches.Len() != 1 {
		t.Fatal("matches must still be reported")
	}
}
