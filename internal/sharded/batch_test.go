package sharded_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"entityres/internal/blocking"
	"entityres/internal/entity"
	"entityres/internal/incremental"
	"entityres/internal/matching"
	"entityres/internal/metablocking"
	"entityres/internal/sharded"
	"entityres/internal/transport"
)

// The sharded batched-ingestion property: a coordinator fed whole batches
// — one plan, one replica journal append, one frame per shard per batch —
// is bit-identical to a single-node resolver fed the same stream one op at
// a time; and a durable deployment hard-stopped around a batch observes
// batch atomicity per shard, with a shard that lost the final batch record
// handed the whole batch again from the coordinator journal on reopen.

// applyOpBatch converts a script chunk to batch records and applies it.
func applyOpBatch(ctx context.Context, r *transport.Coordinator, ops []incremental.Op) error {
	recs := make([]incremental.Record, len(ops))
	for i, op := range ops {
		recs[i] = incremental.Record{Kind: op.Kind, ID: -1, URI: op.URI, Source: op.Source, Attrs: op.Attrs}
	}
	return r.ApplyBatch(ctx, recs)
}

// shardedBatchConfig is one sharded batched-ingestion scenario.
type shardedBatchConfig struct {
	shards int
	size   int
	seed   int64
	ops    int
	meta   *metablocking.MetaBlocker
	mix    opMix
}

func (bc shardedBatchConfig) String() string {
	s := fmt.Sprintf("n%d/b%d/%s/seed%d", bc.shards, bc.size, bc.mix.name, bc.seed)
	if bc.meta != nil {
		s += "/" + bc.meta.Name()
	}
	return s
}

func runShardedBatchDifferential(t *testing.T, bc shardedBatchConfig) {
	matcher := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
	script := generateScript(t, entity.Dirty, bc.seed, bc.ops, bc.mix)
	cfg := sharded.Config{
		Kind: entity.Dirty, Blocker: &blocking.TokenBlocking{}, Matcher: matcher,
		Workers: 4, Meta: bc.meta, Shards: bc.shards,
	}
	sh := openLocal(t, "", cfg)
	single, err := incremental.New(incremental.Config{
		Kind: entity.Dirty, Blocker: &blocking.TokenBlocking{}, Matcher: matcher, Workers: 4, Meta: bc.meta,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	chunks := 0
	for at := 0; at < bc.ops; at += bc.size {
		end := min(at+bc.size, bc.ops)
		if err := applyOpBatch(ctx, sh, script[at:end]); err != nil {
			t.Fatalf("batch at op %d: %v", at, err)
		}
		chunks++
		for i := at; i < end; i++ {
			if err := single.Apply(ctx, script[i]); err != nil {
				t.Fatalf("op %d (%s %s): %v", i, script[i].Kind, script[i].URI, err)
			}
		}
		if at/50 != end/50 || end == bc.ops {
			assertShardedEqualsSingle(t, sh, single, bc.meta != nil, end)
		}
	}
	// The whole point: one fan-out and one frame per shard per batch
	// instead of per op, one replica journal append per batch.
	perf := sh.Perf()
	if perf.FanOuts != int64(chunks) || perf.TransportRoundTrips != int64(chunks*bc.shards) {
		t.Fatalf("%d fan-outs, %d round trips for %d batches on %d shards", perf.FanOuts, perf.TransportRoundTrips, chunks, bc.shards)
	}
	if bc.meta == nil && perf.JournalAppends != int64(chunks) {
		t.Fatalf("%d replica journal appends for %d batches", perf.JournalAppends, chunks)
	}
	assertBatchEquivalence(t, sh, entity.Dirty, cfg.Blocker, bc.meta, matcher, bc.ops)
}

// TestShardedDifferentialBatch is the sharded batched-ingestion acceptance
// matrix. Named to ride the sharded differential race job.
func TestShardedDifferentialBatch(t *testing.T) {
	configs := []shardedBatchConfig{
		{shards: 1, size: 16, seed: 421, ops: 160, mix: opMixes[0]},
		{shards: 2, size: 1, seed: 422, ops: 160, mix: opMixes[1]},
		{shards: 4, size: 16, seed: 423, ops: 200, mix: opMixes[1]},
		{shards: 4, size: 64, seed: 424, ops: 200, mix: opMixes[2]},
		{shards: 3, size: 16, seed: 425, ops: 140, mix: opMixes[1],
			meta: &metablocking.MetaBlocker{Weight: metablocking.CBS, Prune: metablocking.WEP}},
		{shards: 5, size: 7, seed: 426, ops: 140, mix: opMixes[0],
			meta: &metablocking.MetaBlocker{Weight: metablocking.ECBS, Prune: metablocking.WNP}},
	}
	for _, bc := range configs {
		bc := bc
		t.Run(bc.String(), func(t *testing.T) {
			if testing.Short() && bc.shards > 2 {
				t.Skip("short mode runs small shard counts only")
			}
			t.Parallel()
			runShardedBatchDifferential(t, bc)
		})
	}
}

// TestShardedReopenBatch: durable batched ingestion across a hard stop.
// The recovered leg reopens after an Abandon with a torn frame appended to
// one shard's WAL; the torn-fanout leg truncates the final batch record
// off one shard entirely, forcing the coordinator to re-send the shard's
// whole batch from its journal on reopen.
func TestShardedReopenBatch(t *testing.T) {
	matcher := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
	ctx := context.Background()
	singleRef := func(t *testing.T, script []incremental.Op, k int) *incremental.Resolver {
		t.Helper()
		ref, err := incremental.New(incremental.Config{
			Kind: entity.Dirty, Blocker: &blocking.TokenBlocking{}, Matcher: matcher, Workers: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			if err := ref.Apply(ctx, script[i]); err != nil {
				t.Fatalf("reference op %d: %v", i, err)
			}
		}
		return ref
	}
	applyBatches := func(t *testing.T, sh *transport.Coordinator, script []incremental.Op, from, to, size int) {
		t.Helper()
		for at := from; at < to; at += size {
			if err := applyOpBatch(ctx, sh, script[at:min(at+size, to)]); err != nil {
				t.Fatalf("batch at op %d: %v", at, err)
			}
		}
	}

	t.Run("recovered", func(t *testing.T) {
		t.Parallel()
		const shards, ops, size, k = 3, 120, 8, 64
		script := generateScript(t, entity.Dirty, 431, ops, opMixes[1])
		cfg := sharded.Config{
			Kind: entity.Dirty, Blocker: &blocking.TokenBlocking{}, Matcher: matcher,
			Workers: 4, Shards: shards,
			Durable: incremental.DurableOptions{SnapshotEvery: 25, SegmentBytes: 4096, NoSync: true},
		}
		dir := t.TempDir()
		sh := openLocal(t, dir, cfg)
		applyBatches(t, sh, script, 0, k, size)
		sh.Abandon()
		tearShardTail(t, dir, 1)
		re := openLocal(t, dir, cfg)
		if !recovered(re) {
			t.Fatal("reopen found no state")
		}
		assertShardedEqualsSingle(t, re, singleRef(t, script, k), false, k)
		applyBatches(t, re, script, k, ops, size)
		assertShardedEqualsSingle(t, re, singleRef(t, script, ops), false, ops)
	})

	t.Run("durable-meta", func(t *testing.T) {
		t.Parallel()
		// Under live meta-blocking the coordinator's replica does the
		// matching: one replica journal append per acknowledged batch, one
		// per effective reconcile, compacted into replica snapshots. A
		// hard stop and reopen must restore the newest replica snapshot
		// and replay whole-batch records into the decision cache —
		// comparison counters and match state restart-exact against an
		// uninterrupted single-node run that read at the same batch
		// boundaries.
		const shards, ops, size = 3, 96, 8
		meta := &metablocking.MetaBlocker{Weight: metablocking.CBS, Prune: metablocking.WEP}
		script := generateScript(t, entity.Dirty, 433, ops, opMixes[1])
		cfg := sharded.Config{
			Kind: entity.Dirty, Blocker: &blocking.TokenBlocking{}, Matcher: matcher,
			Workers: 4, Shards: shards, Meta: meta,
			Durable: incremental.DurableOptions{SnapshotEvery: 16, SegmentBytes: 4096, NoSync: true},
		}
		single, err := incremental.New(incremental.Config{
			Kind: entity.Dirty, Blocker: &blocking.TokenBlocking{}, Matcher: matcher, Workers: 4, Meta: meta,
		})
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		sh := openLocal(t, dir, cfg)
		for at := 0; at < ops; at += size {
			end := min(at+size, ops)
			if err := applyOpBatch(ctx, sh, script[at:end]); err != nil {
				t.Fatalf("batch at op %d: %v", at, err)
			}
			for i := at; i < end; i++ {
				if err := single.Apply(ctx, script[i]); err != nil {
					t.Fatalf("reference op %d: %v", i, err)
				}
			}
			// Lockstep reads: reads reconcile deferred meta-blocking work,
			// so both legs reconcile at the same batch boundaries.
			mustMatches(t, sh)
			mustMatches(t, single)
		}
		assertShardedEqualsSingle(t, sh, single, true, ops)
		sh.Abandon()
		re := openLocal(t, dir, cfg)
		if !recovered(re) {
			t.Fatal("reopen found no state")
		}
		assertShardedEqualsSingle(t, re, single, true, ops)
		assertBatchEquivalence(t, re, entity.Dirty, cfg.Blocker, meta, matcher, ops)
	})

	t.Run("torn-fanout", func(t *testing.T) {
		t.Parallel()
		// Shard 0 loses the final batch record — its WAL is truncated into
		// that append, the crash shape of a fan-out torn mid-batch. Reopen
		// must hand that shard the WHOLE batch again from the coordinator
		// journal: batch atomicity per shard, then repair.
		const shards, ops, size = 3, 48, 6
		script := generateScript(t, entity.Dirty, 432, ops, opMixes[0])
		cfg := sharded.Config{
			Kind: entity.Dirty, Blocker: &blocking.TokenBlocking{}, Matcher: matcher,
			Workers: 4, Shards: shards,
			Durable: incremental.DurableOptions{SnapshotEvery: 1000, SegmentBytes: 1 << 20, NoSync: true},
		}
		dir := t.TempDir()
		sh := openLocal(t, dir, cfg)
		applyBatches(t, sh, script, 0, ops, size)
		sh.Abandon()
		segs, err := filepath.Glob(filepath.Join(dir, "shard-000", "wal-*.seg"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("no WAL segments for shard 0: %v", err)
		}
		active := segs[len(segs)-1]
		fi, err := os.Stat(active)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(active, fi.Size()-3); err != nil {
			t.Fatal(err)
		}
		re := openLocal(t, dir, cfg)
		// The torn shard recovered to the start of the final batch, one
		// record short of its peers; the reopen re-sent that batch.
		rec := re.Recovery()
		if got, peer := rec[1].ReplayedRecords, rec[2].ReplayedRecords; got != peer-1 {
			t.Fatalf("torn shard replayed %d records, its peer %d: the final batch was not torn off", got, peer)
		}
		assertShardedEqualsSingle(t, re, singleRef(t, script, ops), false, ops)
		assertBatchEquivalence(t, re, entity.Dirty, cfg.Blocker, nil, matcher, ops)
	})
}
