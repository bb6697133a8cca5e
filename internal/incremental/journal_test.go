package incremental_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"entityres/internal/blocking"
	"entityres/internal/entity"
	"entityres/internal/incremental"
	"entityres/internal/matching"
	"entityres/internal/metablocking"
	"entityres/internal/wal"
)

// durableConfig is the baseline durable configuration the unit tests open
// resolvers with: token blocking, Jaccard matching, fast (unsynced) WAL.
func durableConfig() incremental.Config {
	return incremental.Config{
		Kind:    entity.Dirty,
		Blocker: &blocking.TokenBlocking{},
		Matcher: &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5},
		Durable: incremental.DurableOptions{NoSync: true},
	}
}

// desc builds a small description.
func desc(uri, name string) *entity.Description {
	return entity.NewDescription(uri).Add("name", name)
}

func TestOpenResolverFreshThenReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig()
	ctx := context.Background()

	r, err := incremental.OpenResolver(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Recovery().Recovered {
		t.Fatal("fresh directory reported recovered state")
	}
	// Mirror every op on an in-memory resolver: the recovered one must be
	// indistinguishable from it.
	mem, err := incremental.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ops := []*entity.Description{
		desc("u:a", "alice smith"),
		desc("u:b", "alice smith"),
		desc("u:c", "carol jones"),
		desc("u:d", "carol jones"),
	}
	for _, d := range ops {
		idD, err := r.Insert(ctx, d)
		if err != nil {
			t.Fatal(err)
		}
		idM, err := mem.Insert(ctx, d)
		if err != nil {
			t.Fatal(err)
		}
		if idD != idM {
			t.Fatalf("durable resolver assigned handle %d, in-memory %d", idD, idM)
		}
	}
	if err := r.Update(ctx, 2, []entity.Attribute{{Name: "name", Value: "alice smith"}}); err != nil {
		t.Fatal(err)
	}
	if err := mem.Update(ctx, 2, []entity.Attribute{{Name: "name", Value: "alice smith"}}); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(3); err != nil {
		t.Fatal(err)
	}
	if err := mem.Delete(3); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := incremental.OpenResolver(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if !got.Recovery().Recovered {
		t.Fatal("reopen did not report recovered state")
	}
	assertSameResolverState(t, got, mem)
	if id, ok := got.Lookup("u:b"); !ok || id != 1 {
		t.Fatalf("recovered Lookup(u:b) = %d,%v", id, ok)
	}
	// The recovered resolver keeps resolving.
	if _, err := got.Insert(ctx, desc("u:e", "carol jones")); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.Insert(ctx, desc("u:e", "carol jones")); err != nil {
		t.Fatal(err)
	}
	assertSameResolverState(t, got, mem)
}

// assertSameResolverState compares every observable of two resolvers.
func assertSameResolverState(t *testing.T, got, want *incremental.Resolver) {
	t.Helper()
	if g, w := renderState(mustMatches(t, got)), renderState(mustMatches(t, want)); g != w {
		t.Fatalf("match state diverges:\ngot  %s\nwant %s", g, w)
	}
	gs, ws := mustStats(t, got), mustStats(t, want)
	if gs != ws {
		t.Fatalf("stats diverge:\ngot  %+v\nwant %+v", gs, ws)
	}
	if g, w := renderBlocks(got.Blocks()), renderBlocks(want.Blocks()); g != w {
		t.Fatalf("blocks diverge:\ngot  %s\nwant %s", g, w)
	}
}

// renderBlocks renders a block collection byte-exactly: keys and member
// lists in collection order.
func renderBlocks(bs *blocking.Blocks) string {
	var b strings.Builder
	for _, bl := range bs.All() {
		fmt.Fprintf(&b, "%s|%v|%v\n", bl.Key, bl.S0, bl.S1)
	}
	return b.String()
}

func TestOpenResolverConfigFingerprint(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig()
	r, err := incremental.OpenResolver(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Insert(context.Background(), desc("u:a", "alice")); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	mismatches := map[string]func(c *incremental.Config){
		"blocker": func(c *incremental.Config) { c.Blocker = &blocking.StandardBlocking{} },
		"matcher": func(c *incremental.Config) {
			c.Matcher = &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.9}
		},
		"meta": func(c *incremental.Config) {
			c.Meta = &metablocking.MetaBlocker{Weight: metablocking.CBS, Prune: metablocking.WEP}
		},
	}
	for name, mutate := range mismatches {
		c := durableConfig()
		mutate(&c)
		if _, err := incremental.OpenResolver(dir, c); err == nil {
			t.Errorf("reopen with a different %s silently succeeded", name)
		}
	}
	// The matching configuration still opens.
	r, err = incremental.OpenResolver(dir, durableConfig())
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
}

func TestCompactionBoundsReplayAndPrunesFiles(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig()
	cfg.Durable.SnapshotEvery = 10
	// Delta chaining retains the whole snapshot chain back to its full
	// anchor; this test pins the single-file pruning contract of the
	// chain-disabled configuration (chain retention is covered by the
	// chained-snapshot tests).
	cfg.Durable.RebaseEvery = -1
	r, err := incremental.OpenResolver(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const ops = 35
	for i := 0; i < ops; i++ {
		if _, err := r.Insert(ctx, desc(fmt.Sprintf("u:%d", i), fmt.Sprintf("name %d", i%7))); err != nil {
			t.Fatal(err)
		}
	}
	// No graceful close: recovery must work from the files alone.
	r.Abandon()
	got, err := incremental.OpenResolver(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := got.Recovery()
	if !rec.Recovered {
		t.Fatal("not recovered")
	}
	// 35 ops at a cadence of 10: snapshots after op 10, 20, 30 — the tail
	// holds exactly 5 records, and that is all recovery may replay.
	if rec.ReplayedRecords != ops%10 {
		t.Fatalf("recovery replayed %d records, want %d (the tail since the last snapshot)", rec.ReplayedRecords, ops%10)
	}
	if rec.SnapshotSegment == 0 {
		t.Fatal("recovery found no snapshot")
	}
	if st := mustStats(t, got); st.Inserts != ops || st.Live != ops {
		t.Fatalf("recovered stats %+v", st)
	}
	// Compaction pruned: exactly one snapshot file, no segment older than it.
	snaps, err := filepath.Glob(filepath.Join(dir, "snapshot-*.snap"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshot files = %v (%v)", snaps, err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	snapSeq := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(snaps[0]), "snapshot-"), ".snap")
	for _, s := range segs {
		segSeq := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(s), "wal-"), ".seg")
		if segSeq < snapSeq { // zero-padded fixed width: string order = numeric order
			t.Fatalf("segment %s predates snapshot %s — compaction did not prune it", s, snaps[0])
		}
	}
	// An explicit Compact drops the tail to zero for the next recovery.
	if err := got.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := got.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := incremental.OpenResolver(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if n := again.Recovery().ReplayedRecords; n != 0 {
		t.Fatalf("replayed %d records after an explicit Compact", n)
	}
}

// TestReplayBurnsSlotsAtHandleGaps: a journal written while an insert
// cancelled mid-apply still burned its slot holds a handle gap where the
// retracted record was. Replay must burn the slot again, so recovered
// handles, stats and matches line up with the original run.
func TestReplayBurnsSlotsAtHandleGaps(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []string{
		`{"op":"insert","id":0,"uri":"u:a","attrs":[{"name":"name","value":"alice smith"}]}`,
		`{"op":"insert","id":2,"uri":"u:b","attrs":[{"name":"name","value":"alice smith"}]}`,
	} {
		if _, err := log.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := incremental.OpenResolver(dir, durableConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if id, ok := r.Lookup("u:b"); !ok || id != 2 {
		t.Fatalf("recovered Lookup(u:b) = %d,%v, want 2,true", id, ok)
	}
	if _, ok := r.Get(1); ok {
		t.Fatal("burned slot 1 recovered live")
	}
	if st := mustStats(t, r); st.Inserts != 2 || st.Live != 2 || st.Comparisons != 1 || st.Matches != 1 {
		t.Fatalf("recovered stats %+v, want 2 inserts, 2 live, 1 comparison, 1 match", st)
	}
	if id, err := r.Insert(context.Background(), desc("u:c", "carol jones")); err != nil || id != 3 {
		t.Fatalf("insert after recovery = %d,%v, want handle 3 past the burned slot", id, err)
	}
}

func TestClosedResolverRejectsMutationKeepsReads(t *testing.T) {
	dir := t.TempDir()
	r, err := incremental.OpenResolver(dir, durableConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := r.Insert(ctx, desc("u:a", "alice")); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := r.Insert(ctx, desc("u:b", "bob")); err == nil {
		t.Fatal("insert after Close succeeded")
	}
	if err := r.Update(ctx, 0, nil); err == nil {
		t.Fatal("update after Close succeeded")
	}
	if err := r.Delete(0); err == nil {
		t.Fatal("delete after Close succeeded")
	}
	if err := r.Compact(); err == nil {
		t.Fatal("compact after Close succeeded")
	}
	if st := mustStats(t, r); st.Live != 1 {
		t.Fatalf("reads broken after Close: %+v", st)
	}
}

// TestValidationFailuresAreNotJournaled: operations rejected before the
// journal step leave no trace in the log, so recovery is never asked to
// replay an op that cannot apply.
func TestValidationFailuresAreNotJournaled(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig()
	r, err := incremental.OpenResolver(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := r.Insert(ctx, desc("u:a", "alice")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Insert(ctx, desc("u:a", "dup")); err == nil {
		t.Fatal("duplicate URI accepted")
	}
	if _, err := r.Insert(ctx, nil); err == nil {
		t.Fatal("nil insert accepted")
	}
	if err := r.Update(ctx, 99, nil); err == nil {
		t.Fatal("update of unknown handle accepted")
	}
	if err := r.Delete(99); err == nil {
		t.Fatal("delete of unknown handle accepted")
	}
	// Source validation happens post-journal and rolls back.
	if _, err := r.Insert(ctx, &entity.Description{ID: -1, URI: "u:bad", Source: 7}); err == nil {
		t.Fatal("invalid source accepted")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := incremental.OpenResolver(dir, cfg)
	if err != nil {
		t.Fatalf("recovery after rejected ops: %v", err)
	}
	defer got.Close()
	if st := mustStats(t, got); st.Inserts != 1 || st.Live != 1 {
		t.Fatalf("recovered stats %+v, want exactly the one acknowledged insert", st)
	}
}

func TestRecoveryWithLiveMetaBlocking(t *testing.T) {
	cfg := durableConfig()
	cfg.Meta = &metablocking.MetaBlocker{Weight: metablocking.ECBS, Prune: metablocking.WNP}
	cfg.Durable.SnapshotEvery = 4
	dir := t.TempDir()
	r, err := incremental.OpenResolver(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	memCfg := cfg
	mem, err := incremental.New(memCfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	names := []string{"alice smith", "alice smith", "bob brown", "bob brown", "carol jones", "alice smith jr"}
	for i, n := range names {
		d := desc(fmt.Sprintf("u:%d", i), n)
		if _, err := r.Insert(ctx, d); err != nil {
			t.Fatal(err)
		}
		if _, err := mem.Insert(ctx, d); err != nil {
			t.Fatal(err)
		}
	}
	// Read mid-stream so both resolvers reconcile (and cache decisions) at
	// the same point, then keep mutating.
	if g, w := renderState(mustMatches(t, r)), renderState(mustMatches(t, mem)); g != w {
		t.Fatalf("pre-crash meta state diverges\ngot  %s\nwant %s", g, w)
	}
	if err := r.Delete(1); err != nil {
		t.Fatal(err)
	}
	if err := mem.Delete(1); err != nil {
		t.Fatal(err)
	}
	// Hard stop: no Close, deferred meta work pending (metaDirty).
	r.Abandon()
	got, err := incremental.OpenResolver(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	assertSameResolverState(t, got, mem)
	if g, w := renderBlocks(mustRestructuredBlocks(t, got)), renderBlocks(mustRestructuredBlocks(t, mem)); g != w {
		t.Fatalf("restructured blocks diverge:\ngot  %s\nwant %s", g, w)
	}
}

// TestSnapshotFileCorruptionDetected: a flipped byte in the snapshot fails
// recovery loudly instead of restoring silently-wrong state.
func TestSnapshotFileCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig()
	r, err := incremental.OpenResolver(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Insert(context.Background(), desc("u:a", "alice")); err != nil {
		t.Fatal(err)
	}
	if err := r.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snapshot-*.snap"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshot files: %v", err)
	}
	raw, err := os.ReadFile(snaps[len(snaps)-1])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(snaps[len(snaps)-1], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := incremental.OpenResolver(dir, cfg); err == nil {
		t.Fatal("recovery accepted a corrupt snapshot")
	}
}

// TestInMemoryResolverJournalIsFree: New resolvers run on the no-op
// journal — Compact and Close are cheap no-ops and Recovery is zero.
func TestInMemoryResolverJournalIsFree(t *testing.T) {
	cfg := durableConfig()
	cfg.Durable = incremental.DurableOptions{}
	r, err := incremental.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Insert(context.Background(), desc("u:a", "alice")); err != nil {
		t.Fatal(err)
	}
	if err := r.Compact(); err != nil {
		t.Fatal(err)
	}
	if rec := r.Recovery(); rec != (incremental.RecoveryInfo{}) {
		t.Fatalf("in-memory resolver reports recovery %+v", rec)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Insert(context.Background(), desc("u:b", "bob")); err == nil {
		t.Fatal("insert after Close succeeded")
	}
}

// TestCorruptJournalRecordsFailRecovery: a record that frames correctly
// (valid CRC) but cannot replay — garbage JSON, an unknown op, a target
// that is not live — fails recovery loudly.
func TestCorruptJournalRecordsFailRecovery(t *testing.T) {
	cases := map[string]string{
		"garbage json":     `{"op":`,
		"unknown op":       `{"op":"merge","id":0}`,
		"update not live":  `{"op":"update","id":42}`,
		"delete not live":  `{"op":"delete","id":42}`,
		"insert handle lo": `{"op":"insert","id":0,"uri":"u:z"}`,
	}
	for name, payload := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := durableConfig()
			r, err := incremental.OpenResolver(dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Insert(context.Background(), desc("u:a", "alice")); err != nil {
				t.Fatal(err)
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			// Append the poison record straight to the WAL.
			l, err := wal.Open(dir, wal.Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := l.Append([]byte(payload)); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := incremental.OpenResolver(dir, cfg); err == nil {
				t.Fatalf("recovery accepted a %s record", name)
			}
		})
	}
}

// TestCancelledUpdateRollsBackCompletely: an Update under a done context is
// refused before it is journaled or applied — previous attributes, block
// membership and matches stay as they were — so memory, the journal and
// crash recovery agree on exactly the acknowledged operations.
func TestCancelledUpdateRollsBackCompletely(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig()
	r, err := incremental.OpenResolver(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := r.Insert(ctx, desc("u:a", "bob jones")); err != nil {
		t.Fatal(err)
	}
	idB, err := r.Insert(ctx, desc("u:b", "bob jones"))
	if err != nil {
		t.Fatal(err)
	}
	preStats := mustStats(t, r)
	preMatches := renderState(mustMatches(t, r))
	preBlocks := renderBlocks(r.Blocks())

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if err := r.Update(cancelled, idB, []entity.Attribute{{Name: "name", Value: "someone else"}}); err == nil {
		t.Fatal("cancelled update succeeded")
	}
	// In memory: exact pre-op state, including b's old attributes.
	if st := mustStats(t, r); st != preStats {
		t.Fatalf("stats after refused update %+v, want %+v", st, preStats)
	}
	if got := renderState(mustMatches(t, r)); got != preMatches {
		t.Fatalf("matches after refused update:\n%s\nwant:\n%s", got, preMatches)
	}
	if got := renderBlocks(r.Blocks()); got != preBlocks {
		t.Fatalf("blocks after refused update:\n%s\nwant:\n%s", got, preBlocks)
	}
	if d, ok := r.Get(idB); !ok || d.Attrs[0].Value != "bob jones" {
		t.Fatalf("description after refused update: %v", d)
	}
	// A later acknowledged op still resolves against the unchanged b.
	if _, err := r.Insert(ctx, desc("u:c", "bob jones")); err != nil {
		t.Fatal(err)
	}
	wantStats := mustStats(t, r)
	wantMatches := renderState(mustMatches(t, r))
	// Crash and recover: the journal never saw the refused update, and the
	// replayed state matches memory bit for bit.
	r.Abandon()
	got, err := incremental.OpenResolver(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if st := mustStats(t, got); st != wantStats {
		t.Fatalf("recovered stats %+v, want %+v", st, wantStats)
	}
	if g := renderState(mustMatches(t, got)); g != wantMatches {
		t.Fatalf("recovered matches:\n%s\nwant:\n%s", g, wantMatches)
	}
}

// TestMalformedSnapshotFailsRecovery: snapshots that frame correctly but
// cannot restore — wrong format version, wrong kind, invalid slots, match
// edges into dead slots, a meta configuration without its weighted graph —
// fail recovery loudly.
func TestMalformedSnapshotFailsRecovery(t *testing.T) {
	blockerNm := (&blocking.TokenBlocking{}).Name()
	matcherNm := (&matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}).Name()
	head := fmt.Sprintf(`"blocker":%q,"matcher":%q`, blockerNm, matcherNm)
	stats := `"stats":{"inserts":1,"updates":0,"deletes":0,"comparisons":0}`
	cases := map[string]string{
		"bad json":     `{`,
		"bad format":   `{"format":99}`,
		"wrong kind":   fmt.Sprintf(`{"format":1,"kind":1,%s,%s}`, head, stats),
		"dead match":   fmt.Sprintf(`{"format":1,"kind":0,%s,"slots":[{"live":true,"uri":"u:a"}],"matches":[[0,1]],%s}`, head, stats),
		"bad source":   fmt.Sprintf(`{"format":1,"kind":0,%s,"slots":[{"live":true,"uri":"u:a","source":7}],%s}`, head, stats),
		"dup uri":      fmt.Sprintf(`{"format":1,"kind":0,%s,"slots":[{"live":true,"uri":"u:a"},{"live":true,"uri":"u:a"}],%s}`, head, stats),
		"meta missing": fmt.Sprintf(`{"format":1,"kind":0,%s,"meta":"meta(CBS,WEP)",%s}`, head, stats),
	}
	for name, payload := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := durableConfig()
			if name == "meta missing" {
				cfg.Meta = &metablocking.MetaBlocker{Weight: metablocking.CBS, Prune: metablocking.WEP}
			}
			r, err := incremental.OpenResolver(dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			snaps, err := filepath.Glob(filepath.Join(dir, "snapshot-*.snap"))
			if err != nil || len(snaps) != 1 {
				t.Fatalf("snapshot files = %v (%v)", snaps, err)
			}
			if err := wal.WriteFileAtomic(snaps[0], []byte(payload)); err != nil {
				t.Fatal(err)
			}
			if _, err := incremental.OpenResolver(dir, cfg); err == nil {
				t.Fatalf("recovery accepted a %s snapshot", name)
			}
		})
	}
}
