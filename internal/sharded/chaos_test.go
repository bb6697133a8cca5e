package sharded_test

import (
	"context"
	"fmt"
	"math/rand"
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
	"entityres/internal/wal"
)

// The crash chaos property of the in-process deployment: a whole process
// hard-stopped mid-stream — no Close, with a torn final record left in one
// shard's WAL by the append a crash would interrupt — reopens with every
// journal restored from its own snapshot + WAL tail and is
// indistinguishable from a deployment that never crashed: the final state
// is bit-exact vs the uninterrupted single-node resolver, and each shard
// replayed only its own journal tail, never the stream's history. A crash
// between the coordinator's journal append and a shard's (the coordinator
// journals first) is repaired by the coordinator re-sending its last
// record; a gap wider than that record is refused.

// tearShardTail appends a partial frame to the active WAL segment of one
// shard directory — the bytes a crash mid-append leaves behind.
func tearShardTail(t *testing.T, dir string, shardIdx int) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, fmt.Sprintf("shard-%03d", shardIdx), "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments to tear for shard %d in %s: %v", shardIdx, dir, err)
	}
	active := segs[len(segs)-1] // zero-padded names: lexical max = highest seq
	f, err := os.OpenFile(active, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	torn := append([]byte{100, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef}, []byte(`{"op":"ins`)...)
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
}

// shardChaosConfig is one crash scenario.
type shardChaosConfig struct {
	shards    int
	seed      int64
	ops       int
	snapEvery int
	mix       opMix
	meta      *metablocking.MetaBlocker
}

func (cc shardChaosConfig) String() string {
	s := fmt.Sprintf("n%d/%s/seed%d/snap%d", cc.shards, cc.mix.name, cc.seed, cc.snapEvery)
	if cc.meta != nil {
		s += "/" + cc.meta.Name()
	}
	return s
}

// runShardCrash drives one scenario: stream to a random op boundary, crash
// the whole deployment, tear one shard's WAL tail, reopen, finish the
// stream, and compare against an uninterrupted single-node run.
func runShardCrash(t *testing.T, cc shardChaosConfig) {
	matcher := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
	script := generateScript(t, entity.Dirty, cc.seed, cc.ops, cc.mix)
	rng := rand.New(rand.NewSource(cc.seed * 31337))
	k := 1 + rng.Intn(cc.ops-1)         // the op boundary the crash hits
	victim := rng.Intn(cc.shards)       // the shard that dies
	readAt := map[int]bool{k: true}     // lockstep read schedule (reads
	for i := 60; i <= cc.ops; i += 60 { // reconcile under meta-blocking)
		readAt[i] = true
	}

	cfg := sharded.Config{
		Kind: entity.Dirty, Blocker: &blocking.TokenBlocking{}, Matcher: matcher,
		Workers: 4, Meta: cc.meta, Shards: cc.shards,
		Durable: incremental.DurableOptions{
			SnapshotEvery: cc.snapEvery,
			SegmentBytes:  4096, // small segments exercise rotation
			NoSync:        true,
		},
	}
	dir := t.TempDir()
	sh := openLocal(t, dir, cfg)
	single, err := incremental.New(incremental.Config{
		Kind: entity.Dirty, Blocker: &blocking.TokenBlocking{}, Matcher: matcher, Workers: 4, Meta: cc.meta,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	apply := func(r interface {
		Apply(context.Context, incremental.Op) error
	}, reads func(), from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := r.Apply(ctx, script[i]); err != nil {
				t.Fatalf("op %d (%s %s): %v", i, script[i].Kind, script[i].URI, err)
			}
			if readAt[i+1] {
				reads()
			}
		}
	}

	// Stream to the crash point on both resolvers.
	apply(sh, func() { sh.Matches() }, 0, k)
	apply(single, func() { single.Matches() }, 0, k)

	// Hard-stop the whole deployment and tear the victim's WAL tail.
	sh.Abandon()
	tearShardTail(t, dir, victim)

	// Reopen: every journal restores from its own snapshot + tail, so
	// replay is bounded by each journal's tail. Every shard journals every
	// operation (a routed frame of one), so the victim's non-meta tail is
	// exactly k mod the snapshot cadence.
	sh = openLocal(t, dir, cfg)
	rec := sh.Recovery()[1+victim]
	if !rec.Recovered {
		t.Fatalf("reopen at op %d found no state on shard %d", k, victim)
	}
	if cc.meta == nil {
		if want := k % cc.snapEvery; rec.ReplayedRecords != want {
			t.Fatalf("crash at op %d, cadence %d: shard %d replayed %d records, want exactly the %d-record tail",
				k, cc.snapEvery, victim, rec.ReplayedRecords, want)
		}
	} else if bound := 2*cc.snapEvery + 2; rec.ReplayedRecords > bound {
		t.Fatalf("crash at op %d, cadence %d: shard %d replayed %d records, beyond the %d-record tail bound",
			k, cc.snapEvery, victim, rec.ReplayedRecords, bound)
	}
	if k >= cc.snapEvery && rec.SnapshotSegment == 0 {
		t.Fatalf("crash at op %d: shard %d replayed the whole stream instead of restoring a snapshot", k, victim)
	}

	// The reopened system equals the uninterrupted reference at the crash
	// point and stays bit-exact through the rest of the stream — matches,
	// stats, blocks and (under meta) restructured blocks.
	assertShardedEqualsSingle(t, sh, single, cc.meta != nil, k)
	apply(sh, func() { sh.Matches() }, k, cc.ops)
	apply(single, func() { single.Matches() }, k, cc.ops)
	assertShardedEqualsSingle(t, sh, single, cc.meta != nil, cc.ops)
	assertBatchEquivalence(t, sh, entity.Dirty, &blocking.TokenBlocking{}, cc.meta, matcher, cc.ops)
}

// TestShardCrashRejoin is the chaos acceptance matrix.
func TestShardCrashRejoin(t *testing.T) {
	configs := []shardChaosConfig{
		{shards: 4, seed: 201, ops: 180, snapEvery: 20, mix: opMixes[1]},
		{shards: 7, seed: 202, ops: 160, snapEvery: 15, mix: opMixes[0]},
		{shards: 2, seed: 203, ops: 160, snapEvery: 25, mix: opMixes[2]},
		{shards: 4, seed: 204, ops: 140, snapEvery: 20, mix: opMixes[1],
			meta: &metablocking.MetaBlocker{Weight: metablocking.CBS, Prune: metablocking.WEP}},
	}
	for _, cc := range configs {
		cc := cc
		t.Run(cc.String(), func(t *testing.T) {
			if testing.Short() && cc.seed > 202 {
				t.Skip("short mode runs the first two chaos scenarios only")
			}
			t.Parallel()
			runShardCrash(t, cc)
		})
	}
}

// TestShardedReopen: a wholly hard-stopped sharded directory reopens with
// the coordinator replica restored from its own journal and every shard
// from its own, and the resumed stream stays bit-exact vs an
// uninterrupted single-node run.
func TestShardedReopen(t *testing.T) {
	matcher := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
	script := generateScript(t, entity.Dirty, 211, 150, opMixes[1])
	cfg := sharded.Config{
		Kind: entity.Dirty, Blocker: &blocking.TokenBlocking{}, Matcher: matcher,
		Workers: 2, Shards: 3,
		Durable: incremental.DurableOptions{SnapshotEvery: 20, SegmentBytes: 4096, NoSync: true},
	}
	single, err := incremental.New(incremental.Config{
		Kind: entity.Dirty, Blocker: &blocking.TokenBlocking{}, Matcher: matcher, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	dir := t.TempDir()
	const stop = 80
	sh := openLocal(t, dir, cfg)
	for i := 0; i < stop; i++ {
		if err := sh.Apply(ctx, script[i]); err != nil {
			t.Fatal(err)
		}
		if err := single.Apply(ctx, script[i]); err != nil {
			t.Fatal(err)
		}
	}
	sh.Abandon() // whole-deployment hard stop: every shard at once

	re := openLocal(t, dir, cfg)
	if !recovered(re) {
		t.Fatal("reopen found no state")
	}
	if got := len(re.Recovery()); got != 1+cfg.Shards {
		t.Fatalf("reopen reports %d journals, want the coordinator's and %d shards'", got, cfg.Shards)
	}
	assertShardedEqualsSingle(t, re, single, false, stop)
	for i := stop; i < len(script); i++ {
		if err := re.Apply(ctx, script[i]); err != nil {
			t.Fatal(err)
		}
		if err := single.Apply(ctx, script[i]); err != nil {
			t.Fatal(err)
		}
	}
	assertShardedEqualsSingle(t, re, single, false, len(script))

	// Reopening with a different shard count is refused by the manifest.
	re.Close()
	bad := cfg
	bad.Shards = 5
	if _, err := transport.OpenLocal(ctx, dir, bad, transport.ClientOptions{}); err == nil {
		t.Fatal("reopen with a different shard count accepted")
	}
}

// appendCoordRecord journals one raw operation record into the
// coordinator's WAL — the on-disk image of a whole-process crash after the
// coordinator journaled (and applied) an operation but before any shard
// received it.
func appendCoordRecord(t *testing.T, dir string, record string) {
	t.Helper()
	l, err := wal.Open(filepath.Join(dir, "coordinator"), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append([]byte(record)); err != nil {
		t.Fatal(err)
	}
}

// TestShardedCrashMidFanout: a whole-process crash between the
// coordinator's journal append and the shards' leaves the journals one
// operation apart; the reopen must re-send the coordinator's last record to
// the behind shards — completing the in-flight operation, never discarding
// it — and the result must be bit-exact with an uninterrupted run that
// includes that operation.
func TestShardedCrashMidFanout(t *testing.T) {
	matcher := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
	script := generateScript(t, entity.Dirty, 221, 60, opMixes[1])
	cfg := sharded.Config{
		Kind: entity.Dirty, Blocker: &blocking.TokenBlocking{}, Matcher: matcher,
		Workers: 2, Shards: 3,
		Durable: incremental.DurableOptions{SnapshotEvery: 100, SegmentBytes: 1 << 16, NoSync: true},
	}
	single, err := incremental.New(incremental.Config{
		Kind: entity.Dirty, Blocker: &blocking.TokenBlocking{}, Matcher: matcher, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	dir := t.TempDir()
	sh := openLocal(t, dir, cfg)
	const k = 40
	for i := 0; i < k; i++ {
		if err := sh.Apply(ctx, script[i]); err != nil {
			t.Fatal(err)
		}
		if err := single.Apply(ctx, script[i]); err != nil {
			t.Fatal(err)
		}
	}
	// The in-flight op the crash interrupts: a delete of a known live
	// handle, journaled by the coordinator only.
	victimURI := ""
	var victimID int
	for i := k - 1; i >= 0; i-- {
		if id, ok := sh.Lookup(script[i].URI); ok {
			victimURI, victimID = script[i].URI, id
			break
		}
	}
	if victimURI == "" {
		t.Fatal("no live description to delete")
	}
	sh.Abandon() // whole-process hard stop, mid-fanout
	appendCoordRecord(t, dir, fmt.Sprintf(`{"op":"delete","id":%d}`, victimID))

	re := openLocal(t, dir, cfg)
	// The in-flight delete was completed everywhere: the reference applies
	// it too, and both keep streaming in lockstep afterwards.
	if err := single.Apply(ctx, incremental.Op{Kind: incremental.OpDelete, URI: victimURI}); err != nil {
		t.Fatal(err)
	}
	if _, ok := re.Lookup(victimURI); ok {
		t.Fatalf("in-flight delete of %s was not completed on reopen", victimURI)
	}
	assertShardedEqualsSingle(t, re, single, false, k+1)
	for i := k; i < len(script); i++ {
		if script[i].URI == victimURI {
			continue // consumed by the in-flight delete on both sides
		}
		if err := re.Apply(ctx, script[i]); err != nil {
			// Ops targeting the deleted description are invalid on both.
			if serr := single.Apply(ctx, script[i]); serr == nil {
				t.Fatalf("op %d failed sharded (%v) but passed single-node", i, err)
			}
			continue
		}
		if err := single.Apply(ctx, script[i]); err != nil {
			t.Fatalf("op %d passed sharded but failed single-node: %v", i, err)
		}
	}
	assertShardedEqualsSingle(t, re, single, false, len(script))
}

// TestShardedCrashMidFanoutKinds covers the re-send of each journaled
// record kind — insert and update (delete is TestShardedCrashMidFanout) —
// and the refusal when the shards trail the coordinator by more than its
// last record.
func TestShardedCrashMidFanoutKinds(t *testing.T) {
	matcher := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
	cfg := sharded.Config{
		Kind: entity.Dirty, Blocker: &blocking.TokenBlocking{}, Matcher: matcher,
		Workers: 2, Shards: 3,
		Durable: incremental.DurableOptions{SnapshotEvery: 100, SegmentBytes: 1 << 16, NoSync: true},
	}
	ctx := context.Background()
	seed := func(t *testing.T, dir string) (*transport.Coordinator, *incremental.Resolver) {
		t.Helper()
		sh := openLocal(t, dir, cfg)
		single, err := incremental.New(incremental.Config{
			Kind: entity.Dirty, Blocker: &blocking.TokenBlocking{}, Matcher: matcher, Workers: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, name := range []string{"alice smith", "alice smith berlin", "carol jones"} {
			d := &entity.Description{ID: -1, URI: fmt.Sprintf("u:%d", i), Attrs: []entity.Attribute{{Name: "name", Value: name}}}
			if _, err := sh.Insert(ctx, d); err != nil {
				t.Fatal(err)
			}
			if _, err := single.Insert(ctx, d); err != nil {
				t.Fatal(err)
			}
		}
		return sh, single
	}

	t.Run("insert", func(t *testing.T) {
		dir := t.TempDir()
		sh, single := seed(t, dir)
		sh.Abandon()
		appendCoordRecord(t, dir, `{"op":"insert","id":3,"uri":"u:new","attrs":[{"name":"name","value":"alice smith"}]}`)
		re := openLocal(t, dir, cfg)
		d := &entity.Description{ID: -1, URI: "u:new", Attrs: []entity.Attribute{{Name: "name", Value: "alice smith"}}}
		if _, err := single.Insert(ctx, d); err != nil {
			t.Fatal(err)
		}
		assertShardedEqualsSingle(t, re, single, false, 4)
	})

	t.Run("update", func(t *testing.T) {
		dir := t.TempDir()
		sh, single := seed(t, dir)
		sh.Abandon()
		appendCoordRecord(t, dir, `{"op":"update","id":2,"attrs":[{"name":"name","value":"alice smith"}]}`)
		re := openLocal(t, dir, cfg)
		if err := single.Update(ctx, 2, []entity.Attribute{{Name: "name", Value: "alice smith"}}); err != nil {
			t.Fatal(err)
		}
		assertShardedEqualsSingle(t, re, single, false, 4)
	})

	t.Run("beyond-one-op-refused", func(t *testing.T) {
		dir := t.TempDir()
		sh, _ := seed(t, dir)
		sh.Abandon()
		appendCoordRecord(t, dir, `{"op":"delete","id":0}`)
		appendCoordRecord(t, dir, `{"op":"delete","id":1}`)
		if _, err := transport.OpenLocal(ctx, dir, cfg, transport.ClientOptions{}); err == nil {
			t.Fatal("journals two ops apart accepted")
		}
	})
}

// TestShardedCrashOnCompactionBoundary: the worst-placed whole-process
// crash — the coordinator journaled the in-flight op AND folded it into a
// snapshot (emptying its WAL tail) before any shard received it. The record
// survives inside the snapshot (incremental.Resolver LastRecord), so the
// reopen still re-sends it.
func TestShardedCrashOnCompactionBoundary(t *testing.T) {
	matcher := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
	// Cadence 1: every operation compacts, so every WAL tail is empty at
	// every boundary — the re-sent record can only come from a snapshot.
	cfg := sharded.Config{
		Kind: entity.Dirty, Blocker: &blocking.TokenBlocking{}, Matcher: matcher,
		Workers: 2, Shards: 3,
		Durable: incremental.DurableOptions{SnapshotEvery: 1, SegmentBytes: 1 << 16, NoSync: true},
	}
	ctx := context.Background()
	dir := t.TempDir()
	sh := openLocal(t, dir, cfg)
	single, err := incremental.New(incremental.Config{
		Kind: entity.Dirty, Blocker: &blocking.TokenBlocking{}, Matcher: matcher, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"alice smith", "alice smith berlin", "carol jones"} {
		d := &entity.Description{ID: -1, URI: fmt.Sprintf("u:%d", i), Attrs: []entity.Attribute{{Name: "name", Value: name}}}
		if _, err := sh.Insert(ctx, d); err != nil {
			t.Fatal(err)
		}
		if _, err := single.Insert(ctx, d); err != nil {
			t.Fatal(err)
		}
	}
	sh.Abandon()

	// Re-enact the coordinator completing the in-flight delete through its
	// own journal-then-apply-then-compact sequence (a delete neither keys
	// nor matches, so opening the replica's directory with the plain
	// configuration is faithful), ending with an empty tail.
	coordCfg := incremental.Config{
		Kind: entity.Dirty, Blocker: &blocking.TokenBlocking{}, Matcher: matcher, Workers: 2,
		Durable: incremental.DurableOptions{SnapshotEvery: 1, SegmentBytes: 1 << 16, NoSync: true},
	}
	ahead, err := incremental.OpenResolver(filepath.Join(dir, "coordinator"), coordCfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec := ahead.Recovery(); rec.ReplayedRecords != 0 {
		t.Fatalf("coordinator tail not empty at the boundary: %d records", rec.ReplayedRecords)
	}
	if err := ahead.Delete(2); err != nil {
		t.Fatal(err)
	}
	if err := ahead.Close(); err != nil {
		t.Fatal(err)
	}

	re := openLocal(t, dir, cfg)
	if err := single.Delete(2); err != nil {
		t.Fatal(err)
	}
	assertShardedEqualsSingle(t, re, single, false, 4)
}
