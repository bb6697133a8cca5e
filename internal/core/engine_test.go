package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"entityres/internal/blocking"
	"entityres/internal/blockproc"
	"entityres/internal/datagen"
	"entityres/internal/entity"
	"entityres/internal/matching"
	"entityres/internal/metablocking"
	"entityres/internal/progressive"
)

func engineCollection(t testing.TB) (*entity.Collection, *entity.Matches) {
	t.Helper()
	c, gt, err := datagen.GenerateDirty(datagen.Config{Entities: 120, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return c, gt
}

// batchConfig exercises every planning phase: blocking, cleaning and
// meta-blocking ahead of batch matching.
func batchConfig() Pipeline {
	return Pipeline{
		Blocker:    &blocking.TokenBlocking{},
		Processors: []blockproc.Processor{&blockproc.BlockFiltering{}},
		Meta:       &metablocking.MetaBlocker{Weight: metablocking.ECBS, Prune: metablocking.WEP},
		Matcher:    &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5},
		Mode:       Batch,
	}
}

func phaseNames(r *Result) []string {
	names := make([]string, len(r.Phases))
	for i, ph := range r.Phases {
		names[i] = ph.Name
	}
	return names
}

// TestEngineWorkerSweep is the determinism contract of the one phase
// sequencer: every worker count — 0 meaning GOMAXPROCS, 13 splitting the
// collection and its blocks unevenly — yields exactly the one-worker
// run (what Run executes) in matches, comparison count, final block
// collection size and phase sequence, in every mode. Progressive runs also
// keep the exact budget and an identical recall curve.
func TestEngineWorkerSweep(t *testing.T) {
	c, gt := engineCollection(t)
	m := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
	key := blocking.SortedTokensKey(nil)
	progressiveCfg := func(sched SchedulerFactory) Pipeline {
		return Pipeline{Blocker: &blocking.TokenBlocking{}, Matcher: m, Mode: Progressive,
			Budget: 777, GroundTruth: gt, Scheduler: sched}
	}
	cases := []struct {
		name string
		cfg  Pipeline
	}{
		{"batch", Pipeline{Blocker: &blocking.TokenBlocking{}, Matcher: m}},
		{"batch-filtered-ECBS-WEP", batchConfig()},
		{"batch-CBS-WNP", Pipeline{Blocker: &blocking.TokenBlocking{}, Matcher: m,
			Meta: &metablocking.MetaBlocker{Weight: metablocking.CBS, Prune: metablocking.WNP}}},
		{"batch-ARCS-WNP", Pipeline{Blocker: &blocking.TokenBlocking{}, Matcher: m,
			Meta: &metablocking.MetaBlocker{Weight: metablocking.ARCS, Prune: metablocking.WNP}}},
		{"batch-EJS-CNP-R", Pipeline{Blocker: &blocking.TokenBlocking{}, Matcher: m,
			Meta: &metablocking.MetaBlocker{Weight: metablocking.EJS, Prune: metablocking.CNP, Reciprocal: true}}},
		{"batch-sorted-neighborhood", Pipeline{Blocker: &blocking.SortedNeighborhood{Window: 5}, Matcher: m}},
		{"progressive-static", progressiveCfg(func(_ *entity.Collection, bs *blocking.Blocks) progressive.Scheduler {
			return progressive.NewStaticOrder(bs)
		})},
		{"progressive-psnm-lookahead", progressiveCfg(func(c *entity.Collection, _ *blocking.Blocks) progressive.Scheduler {
			return progressive.NewPSNM(c, key, true, 0)
		})},
		{"progressive-benefitcost", progressiveCfg(func(_ *entity.Collection, bs *blocking.Blocks) progressive.Scheduler {
			return progressive.NewBenefitCost(metablocking.BuildGraph(bs, metablocking.ARCS), 64, 1)
		})},
		{"streaming", Pipeline{Blocker: &blocking.TokenBlocking{}, Matcher: m, Mode: Streaming}},
		{"streaming-ECBS-WNP", Pipeline{Blocker: &blocking.TokenBlocking{}, Matcher: m, Mode: Streaming,
			Meta: &metablocking.MetaBlocker{Weight: metablocking.ECBS, Prune: metablocking.WNP}}},
		{"streaming-shards3", Pipeline{Blocker: &blocking.TokenBlocking{}, Matcher: m, Mode: Streaming, StreamShards: 3}},
		{"merging-iterative", Pipeline{Blocker: &blocking.TokenBlocking{}, Mode: MergingIterative,
			Matcher: &matching.Matcher{Sim: &matching.TokenContainment{}, Threshold: 0.7}}},
		{"iterative-blocking", Pipeline{Blocker: &blocking.TokenBlocking{}, Mode: IterativeBlocks,
			Matcher: &matching.Matcher{Sim: &matching.TokenContainment{}, Threshold: 0.7}}},
		{"collective", Pipeline{Blocker: &blocking.TokenBlocking{}, Matcher: m, Mode: Collective}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base, err := tc.cfg.Run(c)
			if err != nil {
				t.Fatal(err)
			}
			if base.Matches.Len() == 0 {
				t.Fatal("one-worker run found no matches")
			}
			if tc.cfg.Mode == Progressive && base.Comparisons != 777 {
				t.Fatalf("executed %d comparisons, want exactly the budget 777", base.Comparisons)
			}
			for _, workers := range []int{2, 4, 13, 0} {
				got, err := tc.cfg.RunWorkers(context.Background(), c, workers)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if gm, wm := sortedPairs(got.Matches), sortedPairs(base.Matches); !reflect.DeepEqual(gm, wm) {
					t.Fatalf("workers=%d: matches diverge from one worker:\ngot  %v\nwant %v", workers, gm, wm)
				}
				if got.Comparisons != base.Comparisons {
					t.Fatalf("workers=%d: comparisons %d, want %d", workers, got.Comparisons, base.Comparisons)
				}
				if got.Blocks.Len() != base.Blocks.Len() {
					t.Fatalf("workers=%d: %d final blocks, want %d", workers, got.Blocks.Len(), base.Blocks.Len())
				}
				if gp, wp := phaseNames(got), phaseNames(base); !reflect.DeepEqual(gp, wp) {
					t.Fatalf("workers=%d: phases %v, want %v", workers, gp, wp)
				}
				if !reflect.DeepEqual(got.Curve, base.Curve) {
					t.Fatalf("workers=%d: recall curve diverges from one worker", workers)
				}
			}
		})
	}
}

// TestEngineCancellation: a pre-cancelled context stops the run before its
// first phase, in the batch sequence and in the streaming replay alike.
func TestEngineCancellation(t *testing.T) {
	c, _ := engineCollection(t)
	stream := Pipeline{
		Blocker: &blocking.TokenBlocking{},
		Matcher: &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5},
		Mode:    Streaming,
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, cfg := range []Pipeline{batchConfig(), stream} {
		t.Run(cfg.Mode.String(), func(t *testing.T) {
			res, err := cfg.RunWorkers(ctx, c, 4)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
			}
			if res != nil {
				t.Fatalf("cancelled run returned a result: %+v", res)
			}
		})
	}
}
