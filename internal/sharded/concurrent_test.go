package sharded_test

import (
	"context"
	"sync"
	"testing"

	"entityres/internal/blocking"
	"entityres/internal/entity"
	"entityres/internal/incremental"
	"entityres/internal/matching"
	"entityres/internal/metablocking"
	"entityres/internal/sharded"
)

// The sharded concurrent differential: readers hammer the coordinator's
// read surface (under meta-blocking, reads reconcile on the replica) while
// the writer streams ops and batches, and the final state is bit-exact
// with the single-node sequential replay. Run under -race in CI, this
// exercises the coordinator's shared lock AND the per-shard goroutine
// fan-out over the pipes at once.
func TestShardedConcurrentReads(t *testing.T) {
	t.Parallel()
	matcher := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
	blocker := &blocking.TokenBlocking{}
	meta := &metablocking.MetaBlocker{Weight: metablocking.ECBS, Prune: metablocking.WNP}
	sh := openLocal(t, "", sharded.Config{
		Kind: entity.Dirty, Blocker: blocker, Matcher: matcher, Workers: 2, Meta: meta, Shards: 4,
	})
	script := generateScript(t, entity.Dirty, 61, 200, opMixes[1])
	var uris []string
	for _, op := range script {
		if op.Kind == incremental.OpInsert {
			uris = append(uris, op.URI)
		}
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	const readers = 8
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var last incremental.Stats
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				switch i % 4 {
				case 0:
					st, err := sh.Stats()
					if err != nil {
						t.Errorf("reader %d: stats: %v", g, err)
						return
					}
					if int64(st.Live) != st.Inserts-st.Deletes {
						t.Errorf("reader %d: torn aggregate stats: %+v", g, st)
						return
					}
					if st.Inserts < last.Inserts || st.Deletes < last.Deletes {
						t.Errorf("reader %d: aggregate counters ran backwards: %+v then %+v", g, last, st)
						return
					}
					last = st
				case 1:
					matches, err := sh.Matches()
					if err != nil {
						t.Errorf("reader %d: matches: %v", g, err)
						return
					}
					for _, p := range matches.Pairs() {
						if p.A == p.B {
							t.Errorf("reader %d: self-match %v", g, p.A)
							return
						}
					}
				case 2:
					if _, err := sh.Clusters(); err != nil {
						t.Errorf("reader %d: clusters: %v", g, err)
						return
					}
				default:
					if id, ok := sh.Lookup(uris[(i*7+g)%len(uris)]); ok {
						sh.Get(id)
					}
				}
			}
		}(g)
	}

	ctx := context.Background()
	const chunk = 6
	for i := 0; i < len(script); {
		end := min(i+chunk, len(script))
		if (i/chunk)%4 == 3 {
			recs := make([]incremental.Record, 0, end-i)
			for _, op := range script[i:end] {
				recs = append(recs, incremental.Record{Kind: op.Kind, ID: -1, URI: op.URI, Source: op.Source, Attrs: op.Attrs})
			}
			if err := sh.ApplyBatch(ctx, recs); err != nil {
				t.Errorf("batch at op %d: %v", i, err)
				break
			}
		} else {
			for j, op := range script[i:end] {
				if err := sh.Apply(ctx, op); err != nil {
					t.Errorf("op %d (%s %s): %v", i+j, op.Kind, op.URI, err)
					break
				}
			}
		}
		i = end
	}
	close(done)
	wg.Wait()
	if t.Failed() {
		return
	}

	// The storm changed nothing: the sharded state equals the single-node
	// sequential replay, every observable.
	single, err := incremental.New(incremental.Config{
		Kind: entity.Dirty, Blocker: blocker, Matcher: matcher, Workers: 2, Meta: meta,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range script {
		if err := single.Apply(ctx, op); err != nil {
			t.Fatalf("replay op %d: %v", i, err)
		}
	}
	if g, w := renderState(mustMatches(t, sh)), renderState(mustMatches(t, single)); g != w {
		t.Fatalf("sharded state after read storm diverges from single-node replay:\nsharded:\n%s\nsingle:\n%s", g, w)
	}
	gs, ws := mustStats(t, sh), mustStats(t, single)
	// Comparison counts depend on the reconcile schedule the readers drove;
	// everything else must agree exactly.
	gs.Comparisons, ws.Comparisons = 0, 0
	if gs != ws {
		t.Fatalf("sharded stats after read storm diverge from single-node replay:\nsharded: %+v\nsingle:  %+v", gs, ws)
	}
	if p := sh.Perf(); p.SharedReads == 0 {
		t.Fatalf("read storm recorded no shared reads: %+v", p)
	}
}
