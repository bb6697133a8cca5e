package progressive

import (
	"testing"

	"entityres/internal/blocking"
	"entityres/internal/datagen"
	"entityres/internal/entity"
	"entityres/internal/graph"
	"entityres/internal/matching"
	"entityres/internal/metablocking"
)

func sampleBlocks(t *testing.T) (*entity.Collection, *blocking.Blocks) {
	t.Helper()
	c := entity.NewCollection(entity.Dirty)
	c.MustAdd(entity.NewDescription("").Add("n", "alpha beta"))  // 0
	c.MustAdd(entity.NewDescription("").Add("n", "alpha beta"))  // 1
	c.MustAdd(entity.NewDescription("").Add("n", "gamma delta")) // 2
	c.MustAdd(entity.NewDescription("").Add("n", "gamma delta")) // 3
	bs, err := (&blocking.TokenBlocking{}).Block(c)
	if err != nil {
		t.Fatal(err)
	}
	return c, bs
}

func drain(s Scheduler) []entity.Pair {
	var out []entity.Pair
	for {
		p, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, p)
	}
}

func TestStaticOrderEmitsDistinctPairs(t *testing.T) {
	_, bs := sampleBlocks(t)
	s := NewStaticOrder(bs)
	pairs := drain(s)
	want := bs.DistinctPairs()
	if len(pairs) != want.Len() {
		t.Fatalf("emitted %d, want %d", len(pairs), want.Len())
	}
	seen := entity.NewPairSet(0)
	for _, p := range pairs {
		if !seen.Add(p.A, p.B) {
			t.Fatalf("duplicate pair %v", p)
		}
	}
	if _, ok := s.Next(); ok {
		t.Fatal("exhausted scheduler emitted")
	}
}

func TestRandomOrderIsPermutation(t *testing.T) {
	_, bs := sampleBlocks(t)
	a := drain(NewRandomOrder(bs, 1))
	b := drain(NewRandomOrder(bs, 1))
	if len(a) != len(b) {
		t.Fatal("same seed different length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed different order")
		}
	}
	static := drain(NewStaticOrder(bs))
	if len(a) != len(static) {
		t.Fatalf("permutation size %d vs %d", len(a), len(static))
	}
	sortPairs(a)
	sortPairs(static)
	for i := range a {
		if a[i] != static[i] {
			t.Fatal("random order is not a permutation of static")
		}
	}
}

func TestSlidingWindowDistanceOrder(t *testing.T) {
	c := entity.NewCollection(entity.Dirty)
	for _, v := range []string{"aa", "ab", "ac", "ad"} {
		c.MustAdd(entity.NewDescription("").Add("n", v))
	}
	s := NewSlidingWindow(c, blocking.SortedTokensKey(nil), 0)
	pairs := drain(s)
	// n=4: distance 1 gives 3 pairs, distance 2 gives 2, distance 3 gives 1.
	if len(pairs) != 6 {
		t.Fatalf("pairs = %d", len(pairs))
	}
	if pairs[0] != entity.NewPair(0, 1) || pairs[2] != entity.NewPair(2, 3) {
		t.Fatalf("distance-1 pairs wrong: %v", pairs[:3])
	}
	if pairs[3] != entity.NewPair(0, 2) {
		t.Fatalf("distance-2 should follow: %v", pairs[3])
	}
	if pairs[5] != entity.NewPair(0, 3) {
		t.Fatalf("distance-3 last: %v", pairs[5])
	}
}

func TestSlidingWindowMaxDistance(t *testing.T) {
	c := entity.NewCollection(entity.Dirty)
	for _, v := range []string{"aa", "ab", "ac", "ad"} {
		c.MustAdd(entity.NewDescription("").Add("n", v))
	}
	s := NewSlidingWindow(c, blocking.SortedTokensKey(nil), 1)
	if got := len(drain(s)); got != 3 {
		t.Fatalf("maxDistance=1 pairs = %d", got)
	}
}

func TestSlidingWindowCleanCleanSkipsSameSource(t *testing.T) {
	c := entity.NewCollection(entity.CleanClean)
	c.MustAdd(entity.NewDescription("").Add("n", "aa"))
	c.MustAdd(entity.NewDescription("").Add("n", "ab"))
	d := entity.NewDescription("").Add("n", "ac")
	d.Source = 1
	c.MustAdd(d)
	pairs := drain(NewSlidingWindow(c, blocking.SortedTokensKey(nil), 0))
	for _, p := range pairs {
		if c.Get(p.A).Source == c.Get(p.B).Source {
			t.Fatalf("same-source pair %v", p)
		}
	}
	if len(pairs) != 2 {
		t.Fatalf("pairs = %d", len(pairs))
	}
}

func TestHierarchyBottomUp(t *testing.T) {
	c := entity.NewCollection(entity.Dirty)
	// Keys: "aaaa", "aaab" share 3-prefix; "aazz" shares 2-prefix; "zzzz"
	// only the root.
	for _, v := range []string{"aaaa", "aaab", "aazz", "zzzz"} {
		c.MustAdd(entity.NewDescription("").Add("n", v))
	}
	h := NewHierarchy(c, blocking.SortedTokensKey(nil), []int{3, 2, 0})
	pairs := drain(h)
	if len(pairs) != 6 {
		t.Fatalf("pairs = %d (all pairs eventually)", len(pairs))
	}
	if pairs[0] != entity.NewPair(0, 1) {
		t.Fatalf("finest partition first: %v", pairs[0])
	}
	// Level 2 adds (0,2),(1,2); root adds the rest.
	second := map[entity.Pair]bool{pairs[1]: true, pairs[2]: true}
	if !second[entity.NewPair(0, 2)] || !second[entity.NewPair(1, 2)] {
		t.Fatalf("level-2 pairs wrong: %v", pairs[1:3])
	}
	// No duplicates.
	seen := entity.NewPairSet(0)
	for _, p := range pairs {
		if !seen.Add(p.A, p.B) {
			t.Fatalf("duplicate %v", p)
		}
	}
}

func TestPSNMLookaheadPrioritizesNeighbors(t *testing.T) {
	c := entity.NewCollection(entity.Dirty)
	// Sorted order: 0:"aaa a", 1:"aaa b", 2:"aaa c", 3:"zzz" — 0,1,2 are a
	// duplicate cluster.
	c.MustAdd(entity.NewDescription("").Add("n", "aaa a"))
	c.MustAdd(entity.NewDescription("").Add("n", "aaa b"))
	c.MustAdd(entity.NewDescription("").Add("n", "aaa c"))
	c.MustAdd(entity.NewDescription("").Add("n", "zzz"))
	m := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.3}
	s := NewPSNM(c, blocking.SortedTokensKey(nil), true, 0)
	p1, _ := s.Next() // (0,1) at distance 1
	if p1 != entity.NewPair(0, 1) {
		t.Fatalf("first pair = %v", p1)
	}
	ok, _ := m.Match(c.Get(p1.A), c.Get(p1.B))
	s.Feedback(p1, ok)
	// Lookahead jumps to (0+1, 1+1)-ish neighborhood: (1... wait, match at
	// positions (0,1) schedules (0,2) — position j+1 — before base (1,2).
	p2, _ := s.Next()
	if p2 != entity.NewPair(0, 2) {
		t.Fatalf("lookahead pair = %v, want (0,2)", p2)
	}
	// Without lookahead the base order continues at distance 1.
	s2 := NewPSNM(c, blocking.SortedTokensKey(nil), false, 0)
	q1, _ := s2.Next()
	s2.Feedback(q1, true)
	q2, _ := s2.Next()
	if q2 != entity.NewPair(1, 2) {
		t.Fatalf("base pair = %v, want (1,2)", q2)
	}
}

func TestPSNMNoDuplicateEmissions(t *testing.T) {
	c, _ := func() (*entity.Collection, *blocking.Blocks) {
		c := entity.NewCollection(entity.Dirty)
		for _, v := range []string{"aa x", "aa y", "aa z", "bb"} {
			c.MustAdd(entity.NewDescription("").Add("n", v))
		}
		return c, nil
	}()
	s := NewPSNM(c, blocking.SortedTokensKey(nil), true, 0)
	seen := entity.NewPairSet(0)
	for {
		p, ok := s.Next()
		if !ok {
			break
		}
		if !seen.Add(p.A, p.B) {
			t.Fatalf("duplicate emission %v", p)
		}
		s.Feedback(p, true) // aggressive lookahead everywhere
	}
	if seen.Len() != 6 {
		t.Fatalf("emitted %d of 6 pairs", seen.Len())
	}
}

func TestBenefitCostWindows(t *testing.T) {
	c, bs := sampleBlocks(t)
	g := metablocking.BuildGraph(bs, metablocking.CBS)
	bc := NewBenefitCost(g, 2, 1)
	if bc.Name() != "benefitcost" {
		t.Fatal("name")
	}
	seen := entity.NewPairSet(0)
	n := 0
	for {
		p, ok := bc.Next()
		if !ok {
			break
		}
		n++
		if !seen.Add(p.A, p.B) {
			t.Fatalf("duplicate %v", p)
		}
		bc.Feedback(p, p == entity.NewPair(0, 1))
	}
	if int64(n) != int64(g.NumEdges()) {
		t.Fatalf("emitted %d, want %d", n, g.NumEdges())
	}
	_ = c
}

func TestBenefitCostBoostReordersAfterWindow(t *testing.T) {
	// Graph: high-weight pair (0,1); two low-weight pairs (1,2) and (3,4),
	// with (1,2) sharing entity 1 with the match. Window size 1: after
	// matching (0,1), the boost must pull (1,2) ahead of (3,4) even though
	// their base weights tie.
	gr := graph.New()
	gr.SetWeight(0, 1, 5)
	gr.SetWeight(1, 2, 1)
	gr.SetWeight(3, 4, 1)
	bc := NewBenefitCost(gr, 1, 10)
	p1, _ := bc.Next()
	if p1 != entity.NewPair(0, 1) {
		t.Fatalf("first = %v", p1)
	}
	bc.Feedback(p1, true)
	p2, _ := bc.Next()
	if p2 != entity.NewPair(1, 2) {
		t.Fatalf("boosted pair should come next, got %v", p2)
	}
}

func TestRunBudgetAndCurve(t *testing.T) {
	c, gt, err := datagen.GenerateDirty(datagen.Config{Seed: 12, Entities: 60, DupRatio: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	bs, err := (&blocking.TokenBlocking{}).Block(c)
	if err != nil {
		t.Fatal(err)
	}
	m := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
	budget := int64(200)
	res := runOne(t, c, NewStaticOrder(bs), m, gt, budget)
	if res.Comparisons > budget {
		t.Fatalf("budget exceeded: %d", res.Comparisons)
	}
	if err := res.Curve.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Curve.Final().Comparisons != res.Comparisons {
		t.Fatal("final curve point should record total comparisons")
	}
	// Unlimited budget reaches the blocking recall ceiling.
	all := runOne(t, c, NewStaticOrder(bs), m, gt, 1<<40)
	if all.Curve.Final().Recall <= 0 {
		t.Fatal("no recall achieved with full budget")
	}
}

func TestProgressiveBeatsRandomEarly(t *testing.T) {
	c, gt, err := datagen.GenerateDirty(datagen.Config{Seed: 23, Entities: 150, DupRatio: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	bs, err := (&blocking.TokenBlocking{}).Block(c)
	if err != nil {
		t.Fatal(err)
	}
	m := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
	total := int64(bs.DistinctPairs().Len())
	budget := total / 10 // 10% of the work
	key := blocking.SortedTokensKey(nil)
	psnm := runOne(t, c, NewPSNM(c, key, true, 0), m, gt, budget)
	random := runOne(t, c, NewRandomOrder(bs, 3), m, gt, budget)
	if psnm.Curve.Final().Recall <= random.Curve.Final().Recall {
		t.Fatalf("PSNM@10%% recall %v should beat random %v",
			psnm.Curve.Final().Recall, random.Curve.Final().Recall)
	}
	if psnm.Curve.Final().Recall < 0.5 {
		t.Fatalf("PSNM@10%% recall too low: %v", psnm.Curve.Final().Recall)
	}
}
