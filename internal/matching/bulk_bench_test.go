package matching_test

import (
	"context"
	"testing"
	"time"

	"entityres/internal/blocking"
	"entityres/internal/core"
	"entityres/internal/datagen"
	"entityres/internal/entity"
	"entityres/internal/incremental"
	"entityres/internal/matching"
	"entityres/internal/sharded"
)

// BenchmarkApplyBatchInserts measures the streaming resolver's bulk apply
// against the batch pipeline on the same records and the same comparisons:
// per iteration, one insert-only ApplyBatch of a datagen dirty collection
// into a fresh in-memory resolver and one Pipeline.RunWorkers over it, both
// at two workers. It reports each side's wall time and their ratio
// (apply/pipeline), and fails if the two compare different pair counts.
func BenchmarkApplyBatchInserts(b *testing.B) {
	c, _, err := datagen.GenerateDirty(datagen.Config{Entities: 2000, Seed: 42, DupRatio: 0.5, MaxDuplicates: 3})
	if err != nil {
		b.Fatal(err)
	}
	m := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
	pipeline := &core.Pipeline{Blocker: &blocking.TokenBlocking{}, Matcher: m, Mode: core.Batch}
	ctx := context.Background()
	var apply, batch time.Duration
	for i := 0; i < b.N; i++ {
		r, err := incremental.New(incremental.Config{Kind: entity.Dirty, Blocker: &blocking.TokenBlocking{}, Matcher: m, Workers: 2})
		if err != nil {
			b.Fatal(err)
		}
		recs := make([]incremental.Record, c.Len())
		for j, d := range c.All() {
			recs[j] = incremental.Record{Kind: incremental.OpInsert, ID: -1, URI: d.URI, Source: d.Source, Attrs: d.Attrs}
		}
		t0 := time.Now()
		if err := r.ApplyBatch(ctx, recs); err != nil {
			b.Fatal(err)
		}
		apply += time.Since(t0)
		t0 = time.Now()
		res, err := pipeline.RunWorkers(ctx, c, 2)
		if err != nil {
			b.Fatal(err)
		}
		batch += time.Since(t0)
		if got := r.Counters().Comparisons; got != res.Comparisons {
			b.Fatalf("ApplyBatch compared %d pairs, RunWorkers %d", got, res.Comparisons)
		}
	}
	b.ReportMetric(float64(c.Len()), "records")
	b.ReportMetric(float64(apply.Nanoseconds())/float64(b.N), "apply-ns/op")
	b.ReportMetric(float64(batch.Nanoseconds())/float64(b.N), "pipeline-ns/op")
	b.ReportMetric(float64(apply)/float64(batch), "apply/pipeline")
}

// BenchmarkShardApplyFrame measures the networked shard's apply path: a
// datagen dirty collection inserted as 64-op routed frames into shard 0 of
// a 2-shard deployment — full payload where the shard owns one of the
// record's keys, slot-advance elsewhere — on a durable resolver with fsync
// on. It reports wall time and journal appends per frame.
func BenchmarkShardApplyFrame(b *testing.B) {
	const frameOps = 64
	c, _, err := datagen.GenerateDirty(datagen.Config{Entities: 1000, Seed: 42, DupRatio: 0.5, MaxDuplicates: 3})
	if err != nil {
		b.Fatal(err)
	}
	cfg := sharded.Config{
		Kind: entity.Dirty, Blocker: &blocking.TokenBlocking{},
		Matcher: &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5},
		Workers: 2, Shards: 2,
	}
	keyer := cfg.Blocker.StreamKeyer()
	ops := make([]incremental.RoutedOp, c.Len())
	for i, d := range c.All() {
		ops[i] = incremental.RoutedOp{Seq: uint64(i + 1), Kind: incremental.OpInsert, Advance: true, ID: entity.ID(i)}
		for _, k := range blocking.DistinctKeys(keyer(d)) {
			if sharded.KeyOwner(k, 2) == 0 {
				ops[i] = incremental.RoutedOp{Seq: uint64(i + 1), Kind: incremental.OpInsert, ID: entity.ID(i), URI: d.URI, Attrs: d.Attrs}
				break
			}
		}
	}
	ctx := context.Background()
	var elapsed time.Duration
	var frames, appends int64
	for i := 0; i < b.N; i++ {
		r, err := incremental.OpenResolver(b.TempDir(), cfg.NodeConfig(0))
		if err != nil {
			b.Fatal(err)
		}
		before := r.Perf().JournalAppends
		t0 := time.Now()
		for at := 0; at < len(ops); at += frameOps {
			nbrs := make([][]entity.ID, min(frameOps, len(ops)-at))
			if err := r.ApplyRouted(ctx, ops[at:at+len(nbrs)], nbrs); err != nil {
				b.Fatal(err)
			}
			frames++
		}
		elapsed += time.Since(t0)
		appends += r.Perf().JournalAppends - before
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(frames), "ns/frame")
	b.ReportMetric(float64(appends)/float64(frames), "appends/frame")
}
