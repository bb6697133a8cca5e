package incremental_test

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
)

// The crash-recovery differential property: a resolver hard-stopped at ANY
// operation boundary — no graceful Close, with a torn final record left in
// the WAL by the append the crash interrupted — and reopened with
// OpenResolver is indistinguishable from a resolver that processed the same
// acknowledged operations without interruption: same handles, matches,
// clusters, blocks, restructured blocks and counters, bit for bit. And
// recovery is bounded: replay touches only the records journaled after the
// last snapshot, never the stream's full history.
//
// The tests drive randomized URI-addressed op scripts (fixed seeds) with
// reads at fixed checkpoints (reads mutate state under live meta-blocking,
// so every resolver — crashed, recovered, reference — follows the same read
// schedule), crash at a random op k, tear the WAL tail, recover, finish the
// script, and compare against uninterrupted in-memory references at both
// the crash point and the end.

// crashConfig is one crash-recovery scenario.
type crashConfig struct {
	kind      entity.Kind
	blocker   blocking.StreamableBlocker
	meta      *metablocking.MetaBlocker
	workers   int
	seed      int64
	ops       int
	snapEvery int
	mix       opMix
	sync      bool // fsync per append (slow; one scenario keeps it on)
}

func (cc crashConfig) String() string {
	s := fmt.Sprintf("%s/%s/w%d/%s/seed%d/snap%d", cc.kind, cc.blocker.Name(), cc.workers, cc.mix.name, cc.seed, cc.snapEvery)
	if cc.meta != nil {
		s += "/" + cc.meta.Name()
	}
	if cc.sync {
		s += "/fsync"
	}
	return s
}

// generateScript derives a deterministic URI-addressed op script from the
// pool, honoring the mix the same way runDifferential does.
func generateScript(t *testing.T, kind entity.Kind, seed int64, n int, mix opMix) []incremental.Op {
	t.Helper()
	descs := pool(t, kind, seed)
	rng := rand.New(rand.NewSource(seed * 104729))
	liveIdx := map[int]bool{}
	var liveList []int
	removeLive := func(pos int) {
		liveList[pos] = liveList[len(liveList)-1]
		liveList = liveList[:len(liveList)-1]
	}
	chooseOp := func() incremental.OpKind {
		if len(liveList) == 0 {
			return incremental.OpInsert
		}
		weights := [3]int{mix.insert, mix.update, mix.delete}
		if len(liveList) == len(descs) {
			weights[0] = 0
		}
		roll := rng.Intn(weights[0] + weights[1] + weights[2])
		if roll < weights[0] {
			return incremental.OpInsert
		}
		if roll < weights[0]+weights[1] {
			return incremental.OpUpdate
		}
		return incremental.OpDelete
	}
	ops := make([]incremental.Op, 0, n)
	for len(ops) < n {
		switch chooseOp() {
		case incremental.OpInsert:
			pi := rng.Intn(len(descs))
			if liveIdx[pi] {
				continue
			}
			ops = append(ops, incremental.Op{
				Kind: incremental.OpInsert, URI: descs[pi].URI,
				Source: descs[pi].Source, Attrs: descs[pi].Attrs,
			})
			liveIdx[pi] = true
			liveList = append(liveList, pi)
		case incremental.OpUpdate:
			pos := rng.Intn(len(liveList))
			pi := liveList[pos]
			donor := descs[rng.Intn(len(descs))]
			ops = append(ops, incremental.Op{
				Kind: incremental.OpUpdate, URI: descs[pi].URI,
				Attrs: mutate(rng, descs[pi].Attrs, donor.Attrs),
			})
		default:
			pos := rng.Intn(len(liveList))
			pi := liveList[pos]
			ops = append(ops, incremental.Op{Kind: incremental.OpDelete, URI: descs[pi].URI})
			delete(liveIdx, pi)
			removeLive(pos)
		}
	}
	return ops
}

// tearTail appends a partial frame to the active WAL segment — the bytes a
// crash mid-append leaves behind: a header announcing 100 payload bytes
// with only a few present.
func tearTail(t *testing.T, dir string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments to tear in %s: %v", dir, err)
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

// runCrashRecovery drives one scenario end to end.
func runCrashRecovery(t *testing.T, cc crashConfig) {
	matcher := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
	script := generateScript(t, cc.kind, cc.seed, cc.ops, cc.mix)
	rng := rand.New(rand.NewSource(cc.seed * 31337))
	k := 1 + rng.Intn(cc.ops-1) // the op boundary the crash hits

	// Reads happen after fixed op counts — plus the crash point, where the
	// recovered resolver is inspected — identically on every resolver.
	readAt := map[int]bool{k: true}
	for i := 60; i <= cc.ops; i += 60 {
		readAt[i] = true
	}
	applyRange := func(r *incremental.Resolver, from, to int) {
		t.Helper()
		ctx := context.Background()
		for i := from; i < to; i++ {
			if err := r.Apply(ctx, script[i]); err != nil {
				t.Fatalf("op %d (%s %s): %v", i, script[i].Kind, script[i].URI, err)
			}
			if readAt[i+1] {
				mustMatches(t, r)
			}
		}
	}
	cfg := incremental.Config{
		Kind: cc.kind, Blocker: cc.blocker, Matcher: matcher,
		Workers: cc.workers, Meta: cc.meta,
		Durable: incremental.DurableOptions{
			SnapshotEvery: cc.snapEvery,
			SegmentBytes:  4096, // small segments so scenarios exercise rotation
			NoSync:        !cc.sync,
		},
	}
	memCfg := cfg
	memCfg.Durable = incremental.DurableOptions{}

	// Run to the crash point; hard-stop (no Close) and tear the WAL tail.
	dir := t.TempDir()
	crashed, err := incremental.OpenResolver(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	applyRange(crashed, 0, k)
	crashed.Abandon() // hard stop: drop the fds and the dir lock, no graceful close
	tearTail(t, dir)

	// Recover and check bounded replay.
	r, err := incremental.OpenResolver(dir, cfg)
	if err != nil {
		t.Fatalf("recovery at op %d: %v", k, err)
	}
	defer r.Close()
	rec := r.Recovery()
	if !rec.Recovered {
		t.Fatalf("recovery at op %d found no state", k)
	}
	if cc.meta == nil {
		if want := k % cc.snapEvery; rec.ReplayedRecords != want {
			t.Fatalf("crash at op %d, cadence %d: replayed %d records, want exactly the %d-record tail",
				k, cc.snapEvery, rec.ReplayedRecords, want)
		}
	} else if bound := 2*cc.snapEvery + 2; rec.ReplayedRecords > bound {
		// With meta-blocking the tail also holds journaled reconciles, at
		// most one per operation.
		t.Fatalf("crash at op %d, cadence %d: replayed %d records, beyond the %d-record tail bound",
			k, cc.snapEvery, rec.ReplayedRecords, bound)
	}
	if k >= cc.snapEvery && rec.SnapshotSegment == 0 {
		t.Fatalf("crash at op %d: recovery replayed the whole stream instead of restoring a snapshot", k)
	}

	// The recovered resolver equals an uninterrupted run of the
	// acknowledged prefix...
	refPrefix, err := incremental.New(memCfg)
	if err != nil {
		t.Fatal(err)
	}
	applyRange(refPrefix, 0, k)
	assertSameResolverState(t, r, refPrefix)

	// ...and, after finishing the script, an uninterrupted run of the
	// whole of it — including the meta-blocking observables.
	applyRange(r, k, cc.ops)
	refFull, err := incremental.New(memCfg)
	if err != nil {
		t.Fatal(err)
	}
	applyRange(refFull, 0, cc.ops)
	assertSameResolverState(t, r, refFull)
	if cc.meta != nil {
		if g, w := renderBlocks(mustRestructuredBlocks(t, r)), renderBlocks(mustRestructuredBlocks(t, refFull)); g != w {
			t.Fatalf("restructured blocks diverge after recovery:\ngot  %s\nwant %s", g, w)
		}
	}
	// The batch differential contract holds across the crash too.
	checkDifferential(t, r, diffConfig{kind: cc.kind, blocker: cc.blocker, meta: cc.meta}, matcher, cc.ops)
}

// TestCrashRecoveryDifferential is the durability acceptance matrix.
func TestCrashRecoveryDifferential(t *testing.T) {
	configs := []crashConfig{
		{kind: entity.Dirty, blocker: &blocking.TokenBlocking{}, workers: 4,
			seed: 31, ops: 220, snapEvery: 25, mix: opMixes[1]},
		{kind: entity.Dirty, blocker: &blocking.TokenBlocking{}, workers: 4,
			seed: 32, ops: 180, snapEvery: 20, mix: opMixes[0],
			meta: &metablocking.MetaBlocker{Weight: metablocking.CBS, Prune: metablocking.WEP}},
		{kind: entity.CleanClean, blocker: &blocking.TokenBlocking{}, workers: 4,
			seed: 33, ops: 180, snapEvery: 30, mix: opMixes[1]},
		{kind: entity.Dirty, blocker: &blocking.StandardBlocking{}, workers: 1,
			seed: 34, ops: 160, snapEvery: 15, mix: opMixes[2],
			meta: &metablocking.MetaBlocker{Weight: metablocking.ECBS, Prune: metablocking.WNP}},
		{kind: entity.Dirty, blocker: &blocking.TokenBlocking{}, workers: 2,
			seed: 35, ops: 60, snapEvery: 10, mix: opMixes[1], sync: true},
		{kind: entity.Dirty, blocker: &blocking.TokenBlocking{}, workers: 4,
			seed: 41, ops: 160, snapEvery: 10, mix: opMixes[1]},
		{kind: entity.Dirty, blocker: &blocking.TokenBlocking{}, workers: 4,
			seed: 42, ops: 160, snapEvery: 10, mix: opMixes[2],
			meta: &metablocking.MetaBlocker{Weight: metablocking.JS, Prune: metablocking.WEP}},
		{kind: entity.CleanClean, blocker: &blocking.TokenBlocking{}, workers: 2,
			seed: 43, ops: 140, snapEvery: 8, mix: opMixes[1]},
		{kind: entity.Dirty, blocker: &blocking.TokenBlocking{}, workers: 4,
			seed: 44, ops: 140, snapEvery: 12, mix: opMixes[1],
			meta: &metablocking.MetaBlocker{Weight: metablocking.CBS, Prune: metablocking.WNP}},
	}
	for _, cc := range configs {
		cc := cc
		t.Run(cc.String(), func(t *testing.T) {
			if testing.Short() && cc.seed > 32 {
				t.Skip("short mode runs the first two crash scenarios only")
			}
			t.Parallel()
			runCrashRecovery(t, cc)
		})
	}
}

// TestCrashRecoveryEveryBoundary sweeps every op boundary of one compact
// scenario — not just a sampled crash point — so an off-by-one at a
// snapshot edge (crash exactly at, right before, right after a compaction)
// cannot hide behind a lucky random k.
func TestCrashRecoveryEveryBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("boundary sweep is long")
	}
	const ops, snapEvery = 40, 8
	matcher := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
	script := generateScript(t, entity.Dirty, 77, ops, opMixes[1])
	cfg := incremental.Config{
		Kind: entity.Dirty, Blocker: &blocking.TokenBlocking{}, Matcher: matcher, Workers: 1,
		Durable: incremental.DurableOptions{SnapshotEvery: snapEvery, SegmentBytes: 1024, NoSync: true},
	}
	memCfg := cfg
	memCfg.Durable = incremental.DurableOptions{}
	ctx := context.Background()

	// One reference per prefix, advanced incrementally.
	ref, err := incremental.New(memCfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= ops; k++ {
		dir := t.TempDir()
		crashed, err := incremental.OpenResolver(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			if err := crashed.Apply(ctx, script[i]); err != nil {
				t.Fatalf("boundary %d, op %d: %v", k, i, err)
			}
		}
		crashed.Abandon()
		tearTail(t, dir)
		r, err := incremental.OpenResolver(dir, cfg)
		if err != nil {
			t.Fatalf("boundary %d: recovery: %v", k, err)
		}
		if err := ref.Apply(ctx, script[k-1]); err != nil {
			t.Fatalf("reference op %d: %v", k-1, err)
		}
		if want := k % snapEvery; r.Recovery().ReplayedRecords != want {
			t.Fatalf("boundary %d: replayed %d records, want %d", k, r.Recovery().ReplayedRecords, want)
		}
		assertSameResolverState(t, r, ref)
		r.Close()
	}
}
