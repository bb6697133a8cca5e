package er_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"entityres/er"
)

// The durable in-process sharded deployment (er.Open{Dir, Shards}) under a
// whole-process crash: the coordinator journal in Dir/coordinator and each
// shard's in Dir/shard-%03d restore on their own, the coordinator re-sends
// its last record to a shard that lost it, and the result is bit-exact
// with an uninterrupted single-node run.

// crashScript is a deterministic op stream with inserts, updates and
// deletes over a generated dirty collection.
func crashScript(t *testing.T) []er.StreamOp {
	t.Helper()
	c, _, err := er.GenerateDirty(er.GenConfig{Seed: 17, Entities: 40, DupRatio: 0.6, MaxDuplicates: 2})
	if err != nil {
		t.Fatal(err)
	}
	all := c.All()
	var ops []er.StreamOp
	var live []string
	for i, d := range all {
		ops = append(ops, er.StreamOp{Kind: er.StreamInsert, URI: d.URI, Attrs: d.Attrs})
		live = append(live, d.URI)
		switch {
		case i%5 == 4:
			ops = append(ops, er.StreamOp{Kind: er.StreamUpdate, URI: live[(i*3)%len(live)], Attrs: all[(i*7)%len(all)].Attrs})
		case i%9 == 8:
			j := (i * 5) % len(live)
			ops = append(ops, er.StreamOp{Kind: er.StreamDelete, URI: live[j]})
			live = append(live[:j], live[j+1:]...)
		}
	}
	return ops
}

// assertSameResolved compares stats, match pairs and clusters of two
// resolvers that applied the same stream (handles agree across forms).
func assertSameResolved(t *testing.T, got, want er.Resolver, step string) {
	t.Helper()
	if g, w := mustStats(t, got), mustStats(t, want); g != w {
		t.Fatalf("%s: stats diverge:\nsharded     %+v\nsingle-node %+v", step, g, w)
	}
	_, gm := snapshotOf(t, got)
	_, wm := snapshotOf(t, want)
	if g, w := gm.Pairs(), wm.Pairs(); len(g) != len(w) {
		t.Fatalf("%s: %d match pairs, single-node %d", step, len(g), len(w))
	}
	wm.Each(func(p er.Pair) bool {
		if !gm.Contains(p.A, p.B) {
			t.Fatalf("%s: sharded state misses match %v", step, p)
		}
		return true
	})
	if g, w := gm.Clusters(), wm.Clusters(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: clusters diverge:\nsharded     %v\nsingle-node %v", step, g, w)
	}
}

// TestShardedCrashReopen abandons a durable in-process deployment at a
// batch boundary (mid-stream) and with one shard's final batch record torn
// off (mid-batch), reopens it and finishes the stream, at 2 and 4 shards,
// with and without live meta-blocking.
func TestShardedCrashReopen(t *testing.T) {
	script := crashScript(t)
	const size, cut = 6, 7 // ops per batch; batches applied before the crash
	for _, shards := range []int{2, 4} {
		for _, meta := range []*er.MetaBlocker{nil, {Weight: er.CBS, Prune: er.WEP}} {
			for _, crash := range []string{"mid-stream", "mid-batch"} {
				name := fmt.Sprintf("n%d/%s", shards, crash)
				if meta != nil {
					name += "/" + meta.Name()
				}
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					runShardedCrash(t, script, shards, meta, crash == "mid-batch", size, cut)
				})
			}
		}
	}
}

func runShardedCrash(t *testing.T, script []er.StreamOp, shards int, meta *er.MetaBlocker, tear bool, size, cut int) {
	ctx := context.Background()
	base := er.Config{
		Kind:    er.Dirty,
		Blocker: &er.TokenBlocking{},
		Matcher: &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: 0.5},
		Workers: 2,
		Meta:    meta,
	}
	single, err := er.Open(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	cfg := base
	cfg.Shards = shards
	cfg.Dir = t.TempDir()
	cfg.Durable = er.StreamingDurable{NoSync: true, SnapshotEvery: 4}
	sh, err := er.Open(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	// apply feeds batches [from, to) to r; every batch is followed by a
	// read, so deferred meta-blocking work reconciles on the same schedule
	// on both sides.
	apply := func(r er.Resolver, from, to int) {
		t.Helper()
		for b := from; b < to && b*size < len(script); b++ {
			if err := r.ApplyBatch(ctx, script[b*size:min((b+1)*size, len(script))]); err != nil {
				t.Fatalf("batch %d: %v", b, err)
			}
			mustStats(t, r)
		}
	}
	batches := (len(script) + size - 1) / size
	apply(single, 0, cut)
	apply(sh, 0, cut)
	sh.(er.DurableReporter).Abandon()

	victim := shards - 1
	if tear {
		// Cut into the final record of the victim's active WAL segment: the
		// shard journaled the batch frame but the crash tore it, so it
		// recovers at the batch's start while every other journal holds it.
		segs, err := filepath.Glob(filepath.Join(cfg.Dir, fmt.Sprintf("shard-%03d", victim), "wal-*.seg"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("no WAL segment for shard %d: %v", victim, err)
		}
		active := segs[len(segs)-1]
		fi, err := os.Stat(active)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(active, fi.Size()-3); err != nil {
			t.Fatal(err)
		}
	}
	re, err := er.Open(ctx, cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	rec := re.(er.DurableReporter).Recovery()
	if len(rec) != 1+shards {
		t.Fatalf("reopen reports %d journals, want the coordinator's and %d shards'", len(rec), shards)
	}
	for i, r := range rec {
		if !r.Recovered {
			t.Fatalf("journal %d found no state", i)
		}
	}
	// Every shard journals one frame per batch; the torn shard recovered
	// exactly one record short of its peer.
	if got, peer := rec[1+victim].ReplayedRecords, rec[1].ReplayedRecords; tear && got != peer-1 {
		t.Fatalf("torn shard replayed %d records, its peer %d", got, peer)
	}
	assertSameResolved(t, re, single, fmt.Sprintf("reopened after batch %d", cut))
	apply(single, cut, batches)
	apply(re, cut, batches)
	assertSameResolved(t, re, single, "end of stream")
}

// TestShardedReopenRefusals: a durable sharded directory reopens only as
// the layout that wrote it. A different shard count, a single-node
// directory and a directory of the replicated in-process coordinator this
// deployment replaced (manifest format 1, testdata/sharded-format1) are
// refused with an error naming the cause.
func TestShardedReopenRefusals(t *testing.T) {
	ctx := context.Background()
	cfg := func(dir string, shards int) er.Config {
		c := v2Config()
		c.Dir, c.Shards = dir, shards
		c.Durable = er.StreamingDurable{NoSync: true}
		return c
	}
	populate := func(c er.Config) {
		t.Helper()
		r, err := er.Open(ctx, c)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Insert(ctx, &er.Description{URI: "u:a", Attrs: []er.Attribute{{Name: "name", Value: "alice"}}}); err != nil {
			t.Fatal(err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
	refused := func(c er.Config, want string) {
		t.Helper()
		r, err := er.Open(ctx, c)
		if err == nil {
			r.Close()
			t.Fatalf("Open{Dir: %s, Shards: %d} accepted", c.Dir, c.Shards)
		}
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("Open{Shards: %d} refused with %q, want it to name %q", c.Shards, err, want)
		}
	}

	shardedDir := t.TempDir()
	populate(cfg(shardedDir, 2))
	refused(cfg(shardedDir, 3), "created with 2 shards")
	refused(cfg(shardedDir, 0), "sharded resolver directory")

	singleDir := t.TempDir()
	populate(cfg(singleDir, 0))
	refused(cfg(singleDir, 2), "single-node resolver journal")

	v1 := t.TempDir()
	if err := os.CopyFS(v1, os.DirFS(filepath.Join("testdata", "sharded-format1"))); err != nil {
		t.Fatal(err)
	}
	refused(cfg(v1, 2), "written by the replicated in-process coordinator")
	// The refusal wrote nothing: no coordinator journal appeared beside the
	// old shards.
	if _, err := os.Stat(filepath.Join(v1, "coordinator")); !os.IsNotExist(err) {
		t.Fatalf("a refused format-1 directory gained a coordinator journal: %v", err)
	}
}
