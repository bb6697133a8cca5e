package incremental_test

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
)

// The batched-ingestion differential property: a resolver fed the op
// stream through ApplyBatch — whatever the chunking — is bit-identical to
// a resolver fed the same stream one Apply at a time: same handles,
// matches, comparison counts, blocks and restructured blocks at every
// batch boundary. The batch path buys its amortization honestly: one
// journal append per batch instead of one per op, with validation
// rejecting a bad batch whole before anything is journaled, and crash
// recovery replaying a batch record atomically or not at all.

// batchRecords converts an op-script chunk into the Record form
// ApplyBatch consumes: ID -1 means resolve by URI (and assign a fresh
// handle for inserts).
func batchRecords(ops []incremental.Op) []incremental.Record {
	recs := make([]incremental.Record, len(ops))
	for i, op := range ops {
		recs[i] = incremental.Record{Kind: op.Kind, ID: -1, URI: op.URI, Source: op.Source, Attrs: op.Attrs}
	}
	return recs
}

// batchDiffConfig is one batched-ingestion differential scenario.
type batchDiffConfig struct {
	kind    entity.Kind
	blocker blocking.StreamableBlocker
	meta    *metablocking.MetaBlocker
	workers int
	seed    int64
	ops     int
	size    int // batch size
	mix     opMix
}

func (bc batchDiffConfig) String() string {
	s := fmt.Sprintf("%s/%s/b%d/w%d/%s/seed%d", bc.kind, bc.blocker.Name(), bc.size, bc.workers, bc.mix.name, bc.seed)
	if bc.meta != nil {
		s += "/" + bc.meta.Name()
	}
	return s
}

// runBatchDifferential drives one scenario: the same script through
// ApplyBatch in fixed-size chunks and through per-op Apply in lockstep,
// with state compared at chunk boundaries and the journal-amortization
// evidence asserted at the end.
func runBatchDifferential(t *testing.T, bc batchDiffConfig) {
	matcher := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
	script := generateScript(t, bc.kind, bc.seed, bc.ops, bc.mix)
	cfg := incremental.Config{
		Kind: bc.kind, Blocker: bc.blocker, Matcher: matcher, Workers: bc.workers, Meta: bc.meta,
	}
	batched, err := incremental.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := incremental.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	chunks := 0
	for at := 0; at < bc.ops; at += bc.size {
		end := min(at+bc.size, bc.ops)
		recs := batchRecords(script[at:end])
		if err := batched.ApplyBatch(ctx, recs); err != nil {
			t.Fatalf("batch at op %d (size %d): %v", at, end-at, err)
		}
		chunks++
		for i := at; i < end; i++ {
			if err := ref.Apply(ctx, script[i]); err != nil {
				t.Fatalf("op %d (%s %s): %v", i, script[i].Kind, script[i].URI, err)
			}
			// ApplyBatch writes resolved handles back into the records.
			if recs[i-at].ID < 0 {
				t.Fatalf("batch record %d left unresolved handle %d", i, recs[i-at].ID)
			}
		}
		// Reads reconcile under meta-blocking, so both resolvers follow the
		// same read schedule: every 45-op crossing plus the end.
		if at/45 != end/45 || end == bc.ops {
			assertSameResolverState(t, batched, ref)
		}
	}
	// The amortization is real: one append per batch on the batched
	// resolver, one per op on the reference, zero fan-out or wire work on
	// either. (Under live meta-blocking both sides also journal the same
	// read-scheduled reconciles, so the comparison is an inequality.)
	bp, rp := batched.Perf(), ref.Perf()
	if bc.meta == nil {
		if bp.JournalAppends != int64(chunks) {
			t.Fatalf("batched resolver made %d journal appends for %d batches", bp.JournalAppends, chunks)
		}
		if rp.JournalAppends != int64(bc.ops) {
			t.Fatalf("per-op resolver made %d journal appends for %d ops", rp.JournalAppends, bc.ops)
		}
	} else if bc.size > 1 && bp.JournalAppends >= rp.JournalAppends {
		t.Fatalf("batched resolver made %d journal appends, per-op made %d — batching amortized nothing",
			bp.JournalAppends, rp.JournalAppends)
	}
	if bp.FanOuts != 0 || bp.TransportRoundTrips != 0 || rp.FanOuts != 0 || rp.TransportRoundTrips != 0 {
		t.Fatalf("single-node resolvers report fan-out/wire work: batched %+v per-op %+v", bp, rp)
	}
	// And the streaming contract holds: the batched end state equals a
	// from-scratch batch pipeline over the surviving descriptions.
	checkDifferential(t, batched, diffConfig{kind: bc.kind, blocker: bc.blocker, meta: bc.meta}, matcher, bc.ops)
}

// TestBatchDifferential is the batched-ingestion acceptance matrix: batch
// sizes from degenerate (1) past the script length (256), across kinds,
// blockers, op mixes and meta-blocking schemes.
func TestBatchDifferential(t *testing.T) {
	var configs []batchDiffConfig
	for i, size := range []int{1, 3, 16, 64, 256} {
		configs = append(configs, batchDiffConfig{
			kind: entity.Dirty, blocker: &blocking.TokenBlocking{},
			workers: 4, seed: int64(401 + i), ops: 180, size: size, mix: opMixes[i%len(opMixes)],
		})
	}
	configs = append(configs,
		batchDiffConfig{kind: entity.CleanClean, blocker: &blocking.TokenBlocking{},
			workers: 4, seed: 406, ops: 160, size: 16, mix: opMixes[1]},
		batchDiffConfig{kind: entity.Dirty, blocker: &blocking.StandardBlocking{},
			workers: 2, seed: 407, ops: 160, size: 7, mix: opMixes[2]},
		batchDiffConfig{kind: entity.Dirty, blocker: &blocking.TokenBlocking{},
			workers: 4, seed: 408, ops: 140, size: 16, mix: opMixes[1],
			meta: &metablocking.MetaBlocker{Weight: metablocking.CBS, Prune: metablocking.WEP}},
		batchDiffConfig{kind: entity.Dirty, blocker: &blocking.TokenBlocking{},
			workers: 4, seed: 409, ops: 140, size: 5, mix: opMixes[0],
			meta: &metablocking.MetaBlocker{Weight: metablocking.ECBS, Prune: metablocking.WNP}},
	)
	for _, bc := range configs {
		bc := bc
		t.Run(bc.String(), func(t *testing.T) {
			if testing.Short() && bc.seed > 403 {
				t.Skip("short mode runs the first batch-size scenarios only")
			}
			t.Parallel()
			runBatchDifferential(t, bc)
		})
	}
}

// TestBatchValidation: a batch is admitted whole or rejected whole. Any
// invalid record — even the last of a long batch — leaves the resolver's
// state, counters AND slot space untouched; valid intra-batch chains
// (insert, then update, then delete the same URI) are admitted.
func TestBatchValidation(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	matcher := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
	cfg := incremental.Config{
		Kind: entity.Dirty, Blocker: &blocking.TokenBlocking{}, Matcher: matcher, Workers: 1,
	}
	newSeeded := func() *incremental.Resolver {
		t.Helper()
		r, err := incremental.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range []incremental.Op{
			{Kind: incremental.OpInsert, URI: "u:a", Attrs: []entity.Attribute{{Name: "name", Value: "alice smith"}}},
			{Kind: incremental.OpInsert, URI: "u:b", Attrs: []entity.Attribute{{Name: "name", Value: "bob jones"}}},
		} {
			if err := r.Apply(ctx, op); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}
	attrs := []entity.Attribute{{Name: "name", Value: "carol davis"}}
	rejected := []struct {
		name string
		recs []incremental.Record
	}{
		{"duplicate-insert-uri", []incremental.Record{
			{Kind: incremental.OpInsert, ID: -1, URI: "u:new", Attrs: attrs},
			{Kind: incremental.OpInsert, ID: -1, URI: "u:new", Attrs: attrs},
		}},
		{"insert-live-uri", []incremental.Record{
			{Kind: incremental.OpInsert, ID: -1, URI: "u:a", Attrs: attrs},
		}},
		{"update-unknown-uri", []incremental.Record{
			{Kind: incremental.OpInsert, ID: -1, URI: "u:new", Attrs: attrs},
			{Kind: incremental.OpUpdate, ID: -1, URI: "u:ghost", Attrs: attrs},
		}},
		{"delete-after-batch-delete", []incremental.Record{
			{Kind: incremental.OpDelete, ID: -1, URI: "u:a"},
			{Kind: incremental.OpDelete, ID: -1, URI: "u:a"},
		}},
		{"routed-seq-set", []incremental.Record{
			{Kind: incremental.OpInsert, ID: -1, URI: "u:new", Attrs: attrs, Seq: 7},
		}},
		{"slot-advance-set", []incremental.Record{
			{Kind: incremental.OpInsert, ID: -1, URI: "u:new", Attrs: attrs, Advance: true},
		}},
		{"non-mutation-kind", []incremental.Record{
			{Kind: incremental.OpReconcile, ID: -1},
		}},
	}
	for _, tc := range rejected {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			r := newSeeded()
			before := mustStats(t, r)
			slots := r.Slots()
			if err := r.ApplyBatch(ctx, tc.recs); err == nil {
				t.Fatalf("batch admitted: %+v", tc.recs)
			}
			if after := mustStats(t, r); after != before {
				t.Fatalf("rejected batch mutated counters:\nbefore %+v\nafter  %+v", before, after)
			}
			if r.Slots() != slots {
				t.Fatalf("rejected batch burned slots: %d -> %d", slots, r.Slots())
			}
			if _, ok := r.Lookup("u:new"); ok {
				t.Fatal("rejected batch left a prefix record applied")
			}
			// The resolver is not poisoned: a valid batch still lands.
			if err := r.ApplyBatch(ctx, batchRecords([]incremental.Op{
				{Kind: incremental.OpInsert, URI: "u:ok", Attrs: attrs},
			})); err != nil {
				t.Fatalf("valid batch after rejection: %v", err)
			}
		})
	}
	t.Run("empty-batch", func(t *testing.T) {
		t.Parallel()
		r := newSeeded()
		before := mustStats(t, r)
		appends := r.Perf().JournalAppends
		if err := r.ApplyBatch(ctx, nil); err != nil {
			t.Fatal(err)
		}
		if after := mustStats(t, r); after != before {
			t.Fatalf("empty batch mutated state: %+v -> %+v", before, after)
		}
		if r.Perf().JournalAppends != appends {
			t.Fatal("empty batch journaled a record")
		}
	})
	t.Run("intra-batch-lifecycle", func(t *testing.T) {
		t.Parallel()
		// Insert, update and delete the same URI inside one batch: later
		// records see earlier ones, and the result equals the per-op run.
		script := []incremental.Op{
			{Kind: incremental.OpInsert, URI: "u:x", Attrs: attrs},
			{Kind: incremental.OpUpdate, URI: "u:x", Attrs: []entity.Attribute{{Name: "name", Value: "carol d"}}},
			{Kind: incremental.OpDelete, URI: "u:x"},
			{Kind: incremental.OpInsert, URI: "u:y", Attrs: attrs},
		}
		batched, ref := newSeeded(), newSeeded()
		if err := batched.ApplyBatch(ctx, batchRecords(script)); err != nil {
			t.Fatal(err)
		}
		for _, op := range script {
			if err := ref.Apply(ctx, op); err != nil {
				t.Fatal(err)
			}
		}
		assertSameResolverState(t, batched, ref)
	})
}

// TestBatchCrashRecovery: a batch is one journal record, so a crash leaves
// the stream at a batch boundary — every acknowledged batch survives whole
// (torn-append leg), and a batch whose record the crash cut short vanishes
// whole (truncated-tail leg). Named to ride the crash-recovery race job.
func TestBatchCrashRecovery(t *testing.T) {
	matcher := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
	ctx := context.Background()
	memCfg := incremental.Config{
		Kind: entity.Dirty, Blocker: &blocking.TokenBlocking{}, Matcher: matcher, Workers: 2,
	}
	applyBatches := func(t *testing.T, r *incremental.Resolver, script []incremental.Op, from, to, size int) int {
		t.Helper()
		n := 0
		for at := from; at < to; at += size {
			end := min(at+size, to)
			if err := r.ApplyBatch(ctx, batchRecords(script[at:end])); err != nil {
				t.Fatalf("batch at op %d: %v", at, err)
			}
			n++
		}
		return n
	}
	refTo := func(t *testing.T, script []incremental.Op, k int) *incremental.Resolver {
		t.Helper()
		ref, err := incremental.New(memCfg)
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

	t.Run("torn-append", func(t *testing.T) {
		t.Parallel()
		// Crash right after the 7th batch with a torn partial frame left in
		// the WAL: recovery keeps all 56 acknowledged ops and replays only
		// whole-batch records since the last snapshot.
		const ops, size, k, snapEvery = 96, 8, 56, 20
		script := generateScript(t, entity.Dirty, 411, ops, opMixes[1])
		cfg := memCfg
		cfg.Durable = incremental.DurableOptions{SnapshotEvery: snapEvery, SegmentBytes: 4096, NoSync: true}
		dir := t.TempDir()
		crashed, err := incremental.OpenResolver(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		batches := applyBatches(t, crashed, script, 0, k, size)
		crashed.Abandon()
		tearTail(t, dir)
		r, err := incremental.OpenResolver(dir, cfg)
		if err != nil {
			t.Fatalf("recovery: %v", err)
		}
		defer r.Close()
		rec := r.Recovery()
		if !rec.Recovered {
			t.Fatal("recovery found no state")
		}
		// Replay is bounded in RECORDS, and a batch is one record: never
		// more than the batches journaled since the last snapshot.
		if rec.ReplayedRecords > batches {
			t.Fatalf("replayed %d records for %d batch appends", rec.ReplayedRecords, batches)
		}
		assertSameResolverState(t, r, refTo(t, script, k))
		// The stream continues across the recovery, batched, and lands
		// bit-exact with an uninterrupted per-op run.
		applyBatches(t, r, script, k, ops, size)
		assertSameResolverState(t, r, refTo(t, script, ops))
	})

	t.Run("truncated-tail", func(t *testing.T) {
		t.Parallel()
		// Crash INSIDE the final batch's append: the truncated record must
		// drop the whole batch, never a prefix of it. Snapshots are pushed
		// out of the window so the journal alone carries the stream.
		const ops, size = 30, 6
		script := generateScript(t, entity.Dirty, 412, ops, opMixes[0])
		cfg := memCfg
		cfg.Durable = incremental.DurableOptions{SnapshotEvery: 1000, SegmentBytes: 1 << 20, NoSync: true}
		dir := t.TempDir()
		crashed, err := incremental.OpenResolver(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		applyBatches(t, crashed, script, 0, ops, size)
		crashed.Abandon()
		segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("no WAL segments in %s: %v", dir, err)
		}
		active := segs[len(segs)-1]
		fi, err := os.Stat(active)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(active, fi.Size()-3); err != nil {
			t.Fatal(err)
		}
		r, err := incremental.OpenResolver(dir, cfg)
		if err != nil {
			t.Fatalf("recovery from truncated tail: %v", err)
		}
		defer r.Close()
		// All of the final batch is gone; none of the earlier ones are.
		assertSameResolverState(t, r, refTo(t, script, ops-size))
		if want := ops/size - 1; r.Recovery().ReplayedRecords != want {
			t.Fatalf("replayed %d records, want the %d surviving batch records", r.Recovery().ReplayedRecords, want)
		}
	})
}
