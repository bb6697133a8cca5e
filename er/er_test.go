package er_test

import (
	"bytes"
	"context"
	"testing"

	"entityres/er"
)

// TestEndToEndFacade exercises the whole public surface the way the README
// quickstart does: generate, block, plan, match, evaluate.
func TestEndToEndFacade(t *testing.T) {
	c, gt, err := er.GenerateCleanClean(er.GenConfig{Seed: 2, Entities: 80, DupRatio: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	pipe := &er.Pipeline{
		Blocker:    &er.TokenBlocking{},
		Processors: []er.BlockProcessor{&er.AutoPurge{}},
		Meta:       &er.MetaBlocker{Weight: er.ARCS, Prune: er.WNP},
		Matcher:    &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: 0.4},
	}
	res, err := pipe.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	prf := er.ComparePairs(res.Matches, gt)
	if prf.Recall < 0.5 || prf.Precision < 0.5 {
		t.Fatalf("end-to-end quality too low: %v", prf)
	}
}

func TestFacadeProgressive(t *testing.T) {
	c, gt, err := er.GenerateDirty(er.GenConfig{Seed: 4, Entities: 60, DupRatio: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	m := &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: 0.5}
	sched := er.NewPSNM(c, er.SortedTokensKey(nil), true, 0)
	res := er.RunProgressive(c, sched, m, gt, 150)
	if res.Comparisons > 150 {
		t.Fatalf("budget violated: %d", res.Comparisons)
	}
	if err := res.Curve.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeRSwooshAndIterativeBlocking(t *testing.T) {
	c, _, err := er.GenerateDirty(er.GenConfig{Seed: 5, Entities: 40, DupRatio: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	m := &er.Matcher{Sim: &er.TokenContainment{}, Threshold: 0.75}
	sw := er.RSwoosh(c, m)
	if sw.Comparisons == 0 || len(sw.Resolved) == 0 {
		t.Fatal("swoosh produced nothing")
	}
	bs, err := (&er.TokenBlocking{}).Block(c)
	if err != nil {
		t.Fatal(err)
	}
	ib := er.IterativeBlocking(c, bs, m)
	if ib.Matches.Len() == 0 {
		t.Fatal("iterative blocking found nothing")
	}
}

func TestFacadeNTriplesRoundTrip(t *testing.T) {
	c := er.NewCollection(er.Dirty)
	c.MustAdd(er.NewDescription("http://kb/x").Add("name", "alice"))
	var buf bytes.Buffer
	if err := er.WriteNTriples(&buf, c); err != nil {
		t.Fatal(err)
	}
	c2 := er.NewCollection(er.Dirty)
	if err := er.ReadNTriples(c2, &buf, 0); err != nil {
		t.Fatal(err)
	}
	if c2.Len() != 1 {
		t.Fatalf("round trip lost descriptions: %d", c2.Len())
	}
	if v, _ := c2.Get(0).Value("name"); v != "alice" {
		t.Fatalf("value = %q", v)
	}
}

func TestFacadeTruthTSVRoundTrip(t *testing.T) {
	c := er.NewCollection(er.Dirty)
	c.MustAdd(er.NewDescription("http://kb/a"))
	c.MustAdd(er.NewDescription("http://kb/b"))
	m := er.NewMatches()
	m.Add(0, 1)
	var buf bytes.Buffer
	if err := er.WriteTruthTSV(&buf, c, m); err != nil {
		t.Fatal(err)
	}
	back, err := er.ReadTruthTSV(c, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 1 || !back.Contains(0, 1) {
		t.Fatalf("round trip = %v", back.Pairs())
	}
}

func TestFacadeClusterMetrics(t *testing.T) {
	c, gt, err := er.GenerateDirty(er.GenConfig{Seed: 3, Entities: 40, DupRatio: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	pipe := &er.Pipeline{
		Blocker: &er.TokenBlocking{},
		Matcher: &er.Matcher{Sim: &er.TokenContainment{}, Threshold: 0.75},
		Mode:    er.IterativeBlocks,
	}
	res, err := pipe.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	cm := er.EvaluateClusters(c, res.Matches, gt)
	if cm.RandIndex < 0.9 {
		t.Fatalf("rand index = %v", cm.RandIndex)
	}
	if cm.F1 <= 0 {
		t.Fatalf("cluster F1 = %v", cm.F1)
	}
}

func TestFacadeExtendedQGrams(t *testing.T) {
	c := er.NewCollection(er.Dirty)
	c.MustAdd(er.NewDescription("").Add("n", "katherine"))
	c.MustAdd(er.NewDescription("").Add("n", "katherina"))
	bs, err := (&er.ExtendedQGrams{Q: 2, T: 0.6}).Block(c)
	if err != nil {
		t.Fatal(err)
	}
	if bs.DistinctPairs().Len() == 0 {
		t.Fatal("extended q-grams found no candidate")
	}
}

func TestFacadeBlockingMetrics(t *testing.T) {
	c, gt, err := er.GenerateDirty(er.GenConfig{Seed: 6, Entities: 50, DupRatio: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	bs, err := (&er.TokenBlocking{}).Block(c)
	if err != nil {
		t.Fatal(err)
	}
	m := er.EvaluateBlocking(c, bs, gt)
	if m.PC < 0.9 {
		t.Fatalf("token blocking PC = %v", m.PC)
	}
	if m.RR <= 0 {
		t.Fatalf("RR = %v", m.RR)
	}
}

// TestFacadeParallelPipeline exercises the concurrent engine through the
// public surface and checks it agrees with the sequential pipeline.
func TestFacadeParallelPipeline(t *testing.T) {
	c, gt, err := er.GenerateDirty(er.GenConfig{Seed: 6, Entities: 150})
	if err != nil {
		t.Fatal(err)
	}
	cfg := er.Pipeline{
		Blocker:    &er.TokenBlocking{},
		Processors: []er.BlockProcessor{&er.BlockFiltering{}},
		Meta:       &er.MetaBlocker{Weight: er.ECBS, Prune: er.WEP},
		Matcher:    &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: 0.5},
	}
	seq := cfg
	want, err := seq.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := er.NewParallelPipeline(cfg, er.ParallelOptions{Workers: 4}).Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if got.Matches.Len() != want.Matches.Len() || got.Comparisons != want.Comparisons {
		t.Fatalf("parallel: %d matches / %d comparisons, sequential: %d / %d",
			got.Matches.Len(), got.Comparisons, want.Matches.Len(), want.Comparisons)
	}
	want.Matches.Each(func(p er.Pair) bool {
		if !got.Matches.Contains(p.A, p.B) {
			t.Fatalf("parallel result missing match %v", p)
		}
		return true
	})
	if prf := er.ComparePairs(got.Matches, gt); prf.Recall == 0 {
		t.Fatal("parallel pipeline found none of the ground truth")
	}
}

// TestFacadeShardedBlocking covers the sharded build + streaming iterator
// public helpers.
func TestFacadeShardedBlocking(t *testing.T) {
	c, _, err := er.GenerateDirty(er.GenConfig{Seed: 6, Entities: 100})
	if err != nil {
		t.Fatal(err)
	}
	bs, err := er.BuildShardedBlocks(context.Background(), c, &er.TokenBlocking{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	it := er.NewCompareIterator(bs)
	n := 0
	for {
		if _, ok := it.Next(); !ok {
			break
		}
		n++
	}
	if int64(n) != bs.ComputeStats(true).DistinctComparison {
		t.Fatalf("iterator emitted %d pairs, stats say %d", n, bs.ComputeStats(true).DistinctComparison)
	}
}
