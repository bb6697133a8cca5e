package matching

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"entityres/internal/blocking"
	"entityres/internal/datagen"
	"entityres/internal/entity"
)

func sortedPairs(m *entity.Matches) []entity.Pair {
	ps := m.Pairs()
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].A != ps[j].A {
			return ps[i].A < ps[j].A
		}
		return ps[i].B < ps[j].B
	})
	return ps
}

func parallelTestFixture(t testing.TB) (*entity.Collection, *blocking.Blocks) {
	t.Helper()
	c, _, err := datagen.GenerateDirty(datagen.Config{Entities: 150, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	bs, err := (&blocking.TokenBlocking{}).Block(c)
	if err != nil {
		t.Fatal(err)
	}
	return c, bs
}

// TestResolveBlocksParallelMatchesSequential checks the worker-pool
// executor returns the same match set and comparison count as the
// sequential executor, for several pool sizes and both similarity kinds
// (stateless and cached).
func TestResolveBlocksParallelMatchesSequential(t *testing.T) {
	c, bs := parallelTestFixture(t)
	matchers := []*Matcher{
		{Sim: &TokenJaccard{}, Threshold: 0.5},
		{Sim: NewTFIDFCosine(c, nil), Threshold: 0.5},
	}
	for _, m := range matchers {
		want := ResolveBlocks(c, bs, m)
		for _, workers := range []int{0, 1, 2, 4, 8} {
			got, err := ResolveBlocksParallel(context.Background(), c, bs, m, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", m.Name(), workers, err)
			}
			if got.Comparisons != want.Comparisons {
				t.Fatalf("%s workers=%d: comparisons %d, want %d", m.Name(), workers, got.Comparisons, want.Comparisons)
			}
			gp, wp := sortedPairs(got.Matches), sortedPairs(want.Matches)
			if len(gp) != len(wp) {
				t.Fatalf("%s workers=%d: %d matches, want %d", m.Name(), workers, len(gp), len(wp))
			}
			for i := range wp {
				if gp[i] != wp[i] {
					t.Fatalf("%s workers=%d: match %d is %v, want %v", m.Name(), workers, i, gp[i], wp[i])
				}
			}
		}
	}
}

// cancellingJaccard embeds TokenJaccard and cancels the resolve's context
// on its after-th Sim call.
type cancellingJaccard struct {
	TokenJaccard
	after  int64
	calls  atomic.Int64
	cancel context.CancelFunc
}

func (s *cancellingJaccard) Sim(a, b *entity.Description) float64 {
	if s.calls.Add(1) == s.after {
		s.cancel()
	}
	return s.TokenJaccard.Sim(a, b)
}

// countdownCtx reports cancellation from the first Err call after left
// calls have passed, so a resolve can be stopped at a chosen chunk.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// settled fails t unless the goroutine count returns to start: every
// worker a resolve started has exited.
func settled(t *testing.T, what string, start int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > start {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, %d before the resolve", what, runtime.NumGoroutine(), start)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestResolveBlocksParallelCancelled: a resolve cancelled before it starts,
// in the middle of the walk (after a number of Sim calls) or in the middle
// of binding rows returns ctx.Err() with a partial comparison count, and
// leaves no goroutine behind, at every worker count.
func TestResolveBlocksParallelCancelled(t *testing.T) {
	c, bs := parallelTestFixture(t)
	m := &Matcher{Sim: &TokenJaccard{}, Threshold: 0.5}
	full := ResolveBlocks(c, bs, m)
	for _, workers := range []int{1, 2, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		res, err := ResolveBlocksParallel(ctx, c, bs, m, workers)
		if !errors.Is(err, context.Canceled) || res.Comparisons != 0 {
			t.Fatalf("workers=%d, cancelled before: %d comparisons, err %v", workers, res.Comparisons, err)
		}

		const after = 50
		start := runtime.NumGoroutine()
		ctx, cancel = context.WithCancel(context.Background())
		sim := &cancellingJaccard{after: after, cancel: cancel}
		res, err = ResolveBlocksParallel(ctx, c, bs, &Matcher{Sim: sim, Threshold: 0.5}, workers)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d, cancelled in the walk: err %v", workers, err)
		}
		if res.Comparisons < after || res.Comparisons >= full.Comparisons {
			t.Fatalf("workers=%d, cancelled in the walk: %d of %d comparisons ran", workers, res.Comparisons, full.Comparisons)
		}
		settled(t, fmt.Sprintf("workers=%d walk", workers), start)

		// One Err call admits the resolve and two admit bind chunks.
		start = runtime.NumGoroutine()
		cd := &countdownCtx{Context: context.Background()}
		cd.left.Store(3)
		res, err = ResolveBlocksParallel(cd, c, bs, m, workers)
		if !errors.Is(err, context.Canceled) || res.Comparisons != 0 {
			t.Fatalf("workers=%d, cancelled in the bind: %d comparisons, err %v", workers, res.Comparisons, err)
		}
		settled(t, fmt.Sprintf("workers=%d bind", workers), start)
	}
}
