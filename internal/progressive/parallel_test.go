package progressive

import (
	"context"
	"sort"
	"testing"

	"entityres/internal/blocking"
	"entityres/internal/datagen"
	"entityres/internal/entity"
	"entityres/internal/evaluation"
	"entityres/internal/matching"
)

func parallelRunFixture(t testing.TB) (*entity.Collection, *entity.Matches, *blocking.Blocks) {
	t.Helper()
	c, gt, err := datagen.GenerateDirty(datagen.Config{Entities: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	bs, err := (&blocking.TokenBlocking{}).Block(c)
	if err != nil {
		t.Fatal(err)
	}
	return c, gt, bs
}

func pairsSorted(m *entity.Matches) []entity.Pair {
	ps := m.Pairs()
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].A != ps[j].A {
			return ps[i].A < ps[j].A
		}
		return ps[i].B < ps[j].B
	})
	return ps
}

// runOne is RunParallel at one worker under a background context.
func runOne(tb testing.TB, c *entity.Collection, s Scheduler, m *matching.Matcher, gt *entity.Matches, budget int64) RunResult {
	tb.Helper()
	res, err := RunParallel(context.Background(), c, s, m, gt, budget, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// staticOracle executes the static block order strictly one comparison at
// a time, recording the recall curve the way the runner does.
func staticOracle(c *entity.Collection, bs *blocking.Blocks, m *matching.Matcher, gt *entity.Matches, budget int64) RunResult {
	res := RunResult{Matches: entity.NewMatches()}
	found := 0
	record := func() {
		res.Curve = append(res.Curve, evaluation.CurvePoint{
			Comparisons: res.Comparisons,
			Recall:      float64(found) / float64(gt.Len()),
		})
	}
	bs.EachDistinctComparison(func(p entity.Pair) bool {
		if res.Comparisons == budget {
			return false
		}
		res.Comparisons++
		if ok, _ := m.Match(c.Get(p.A), c.Get(p.B)); ok {
			res.Matches.Add(p.A, p.B)
			if gt.Contains(p.A, p.B) {
				found++
				record()
			}
		}
		return true
	})
	record()
	return res
}

// TestRunParallelMatchesRunStatic: with the feedback-insensitive static
// scheduler every worker count reproduces an independent static run —
// matching.ResolveBlocks over the same blocks for an unbounded budget, and
// a strict one-at-a-time loop over the static order (matches, comparison
// count and recall curve) for a bounded one.
func TestRunParallelMatchesRunStatic(t *testing.T) {
	c, gt, bs := parallelRunFixture(t)
	m := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
	full := matching.ResolveBlocks(c, bs, m)
	for _, budget := range []int64{100, 1000, 1 << 40} {
		want := RunResult{Matches: full.Matches, Comparisons: full.Comparisons}
		if budget < full.Comparisons {
			want = staticOracle(c, bs, m, gt, budget)
		}
		for _, workers := range []int{0, 1, 3, 8} {
			got, err := RunParallel(context.Background(), c, NewStaticOrder(bs), m, gt, budget, workers)
			if err != nil {
				t.Fatalf("budget=%d workers=%d: %v", budget, workers, err)
			}
			if got.Comparisons != want.Comparisons {
				t.Fatalf("budget=%d workers=%d: comparisons %d, want %d", budget, workers, got.Comparisons, want.Comparisons)
			}
			gp, wp := pairsSorted(got.Matches), pairsSorted(want.Matches)
			if len(gp) != len(wp) {
				t.Fatalf("budget=%d workers=%d: %d matches, want %d", budget, workers, len(gp), len(wp))
			}
			for i := range wp {
				if gp[i] != wp[i] {
					t.Fatalf("budget=%d workers=%d: match %d is %v, want %v", budget, workers, i, gp[i], wp[i])
				}
			}
			if want.Curve == nil {
				// ResolveBlocks records no curve; the run's final point
				// still has to account for every comparison.
				if f := got.Curve.Final(); f.Comparisons != want.Comparisons {
					t.Fatalf("budget=%d workers=%d: final curve point %+v", budget, workers, f)
				}
				continue
			}
			if len(got.Curve) != len(want.Curve) {
				t.Fatalf("budget=%d workers=%d: curve has %d points, want %d", budget, workers, len(got.Curve), len(want.Curve))
			}
			for i := range want.Curve {
				if got.Curve[i] != want.Curve[i] {
					t.Fatalf("budget=%d workers=%d: curve point %d is %+v, want %+v", budget, workers, i, got.Curve[i], want.Curve[i])
				}
			}
		}
	}
}

// TestRunParallelBudgetExact: the runner stops at exactly the budget when
// the schedule is longer.
func TestRunParallelBudgetExact(t *testing.T) {
	c, gt, bs := parallelRunFixture(t)
	m := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
	// Budgets straddling wave boundaries.
	for _, budget := range []int64{1, waveSize - 1, waveSize, waveSize + 1, 3*waveSize + 7} {
		got, err := RunParallel(context.Background(), c, NewStaticOrder(bs), m, gt, budget, 4)
		if err != nil {
			t.Fatal(err)
		}
		if got.Comparisons != budget {
			t.Fatalf("budget=%d: executed %d comparisons", budget, got.Comparisons)
		}
	}
}

// TestRunParallelAdaptiveIndependentOfWorkers: adaptive schedulers see
// wave-synchronous feedback, but the result must not depend on the worker
// count because the wave size is fixed.
func TestRunParallelAdaptiveIndependentOfWorkers(t *testing.T) {
	c, gt, _ := parallelRunFixture(t)
	m := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
	var base []entity.Pair
	var baseComp int64
	sched := func() Scheduler {
		return NewPSNM(c, blocking.SortedTokensKey(nil), true, 12)
	}
	for i, workers := range []int{1, 2, 8} {
		got, err := RunParallel(context.Background(), c, sched(), m, gt, 800, workers)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			base, baseComp = pairsSorted(got.Matches), got.Comparisons
			continue
		}
		if got.Comparisons != baseComp {
			t.Fatalf("workers=%d: comparisons %d, want %d", workers, got.Comparisons, baseComp)
		}
		gp := pairsSorted(got.Matches)
		if len(gp) != len(base) {
			t.Fatalf("workers=%d: %d matches, want %d", workers, len(gp), len(base))
		}
		for j := range base {
			if gp[j] != base[j] {
				t.Fatalf("workers=%d: match %d is %v, want %v", workers, j, gp[j], base[j])
			}
		}
	}
}

func TestRunParallelCancelled(t *testing.T) {
	c, gt, bs := parallelRunFixture(t)
	m := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, err := RunParallel(ctx, c, NewStaticOrder(bs), m, gt, 1<<40, 4)
	if err == nil {
		t.Fatal("want context error, got nil")
	}
	if got.Comparisons != 0 {
		t.Fatalf("pre-cancelled run executed %d comparisons", got.Comparisons)
	}
}
