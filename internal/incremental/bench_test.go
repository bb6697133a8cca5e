package incremental_test

import (
	"context"
	"fmt"
	"testing"

	"entityres/internal/blocking"
	"entityres/internal/datagen"
	"entityres/internal/entity"
	"entityres/internal/incremental"
	"entityres/internal/matching"
	"entityres/internal/metablocking"
)

// benchStream builds the replayed description stream once per benchmark.
func benchStream(b *testing.B) []*entity.Description {
	b.Helper()
	entities := 400
	if testing.Short() {
		entities = 80
	}
	c, _, err := datagen.GenerateDirty(datagen.Config{Seed: 77, Entities: entities, DupRatio: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	return c.All()
}

// replayOnce streams every description through a fresh resolver and reads
// the final state (which, with meta-blocking, settles the deferred
// reconcile), returning the resolver's stats.
func replayOnce(b *testing.B, descs []*entity.Description, meta *metablocking.MetaBlocker) incremental.Stats {
	b.Helper()
	r, err := incremental.New(incremental.Config{
		Kind:    entity.Dirty,
		Blocker: &blocking.TokenBlocking{},
		Matcher: &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5},
		Workers: 4,
		Meta:    meta,
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, d := range descs {
		if _, err := r.Insert(ctx, d); err != nil {
			b.Fatal(err)
		}
	}
	return mustStats(b, r)
}

// BenchmarkStreamingMetaBlocking measures the streaming resolver with and
// without live WEP/CBS pruning on the same insert stream, reporting
// throughput as ops/sec and, for the pruned run, the fraction of matcher
// comparisons the live meta-blocking saved against the unpruned frontier
// (saved-ratio) plus the pruned-graph survival rate (kept/candidates).
func BenchmarkStreamingMetaBlocking(b *testing.B) {
	descs := benchStream(b)
	baseline := replayOnce(b, descs, nil)

	b.Run("nometa", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			replayOnce(b, descs, nil)
		}
		b.ReportMetric(float64(len(descs))*float64(b.N)/b.Elapsed().Seconds(), "ops/sec")
	})
	for _, prune := range []metablocking.PruneScheme{metablocking.WEP, metablocking.WNP} {
		meta := &metablocking.MetaBlocker{Weight: metablocking.CBS, Prune: prune}
		b.Run("meta-"+prune.String(), func(b *testing.B) {
			b.ReportAllocs()
			var st incremental.Stats
			for i := 0; i < b.N; i++ {
				st = replayOnce(b, descs, meta)
			}
			b.ReportMetric(float64(len(descs))*float64(b.N)/b.Elapsed().Seconds(), "ops/sec")
			if baseline.Comparisons > 0 {
				saved := 1 - float64(st.Comparisons)/float64(baseline.Comparisons)
				b.ReportMetric(saved, "saved-ratio")
			}
			if st.CandidatePairs > 0 {
				b.ReportMetric(float64(st.KeptPairs)/float64(st.CandidatePairs), "kept-ratio")
			}
		})
	}
}

// preloaded returns an in-memory resolver under token blocking and token
// Jaccard with the default profiler, one worker and the given meta-blocker
// (nil for none), holding descs applied as one batch and read once, so any
// deferred reconcile is settled before the clock starts.
func preloaded(b *testing.B, descs []*entity.Description, meta *metablocking.MetaBlocker) *incremental.Resolver {
	b.Helper()
	r, err := incremental.New(incremental.Config{
		Kind:    entity.Dirty,
		Blocker: &blocking.TokenBlocking{},
		Matcher: &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5},
		Workers: 1,
		Meta:    meta,
	})
	if err != nil {
		b.Fatal(err)
	}
	recs := make([]incremental.Record, len(descs))
	for i, d := range descs {
		recs[i] = incremental.Record{Kind: incremental.OpInsert, ID: -1, URI: d.URI, Attrs: d.Attrs}
	}
	if err := r.ApplyBatch(context.Background(), recs); err != nil {
		b.Fatal(err)
	}
	mustStats(b, r)
	return r
}

// BenchmarkInsertOne measures one singleton insert — a batch of one, the
// live write path without a journal — into an in-memory resolver
// preloaded with two thirds of a datagen dirty collection. Each op inserts
// the next description of the remaining third; once they are used up, a
// fresh preloaded resolver is built off the clock.
func BenchmarkInsertOne(b *testing.B) {
	c, _, err := datagen.GenerateDirty(datagen.Config{Entities: 2000, Seed: 42, DupRatio: 0.5, MaxDuplicates: 3})
	if err != nil {
		b.Fatal(err)
	}
	descs := c.All()
	preload := len(descs) * 2 / 3
	ctx := context.Background()
	r, next := preloaded(b, descs[:preload], nil), preload
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if next == len(descs) {
			b.StopTimer()
			r, next = preloaded(b, descs[:preload], nil), preload
			b.StartTimer()
		}
		if _, err := r.Insert(ctx, descs[next]); err != nil {
			b.Fatal(err)
		}
		next++
	}
}

// BenchmarkMetaReadAfterInsert measures the live meta-blocking read path:
// one singleton insert followed by one Stats read, which reconciles the
// insert's delta under CBS weights and WEP pruning, on an in-memory
// resolver preloaded with 1,000 and then 4,000 descriptions of a datagen
// dirty collection. Each op inserts the next of 250 further descriptions;
// once they are used up, a fresh preloaded resolver is built off the clock.
// A reconcile that pays only for its delta costs about the same at both
// sizes.
func BenchmarkMetaReadAfterInsert(b *testing.B) {
	const extra = 250
	c, _, err := datagen.GenerateDirty(datagen.Config{Entities: 2500, Seed: 42, DupRatio: 0.5, MaxDuplicates: 3})
	if err != nil {
		b.Fatal(err)
	}
	descs := c.All()
	meta := &metablocking.MetaBlocker{Weight: metablocking.CBS, Prune: metablocking.WEP}
	ctx := context.Background()
	for _, preload := range []int{1000, 4000} {
		b.Run(fmt.Sprintf("preload=%d", preload), func(b *testing.B) {
			end := preload + extra
			if end > len(descs) {
				b.Fatalf("collection holds %d descriptions, the benchmark needs %d", len(descs), end)
			}
			r, next := preloaded(b, descs[:preload], meta), preload
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if next == end {
					b.StopTimer()
					r, next = preloaded(b, descs[:preload], meta), preload
					b.StartTimer()
				}
				if _, err := r.Insert(ctx, descs[next]); err != nil {
					b.Fatal(err)
				}
				mustStats(b, r)
				next++
			}
		})
	}
}
