package er_test

import (
	"bytes"
	"context"
	"testing"

	"entityres/er"
)

// TestFacadeStreamingResolver exercises the public streaming surface end to
// end: build an op log, replay it through an in-memory er.Open resolver,
// and check the maintained state equals a batch pipeline over the
// survivors.
func TestFacadeStreamingResolver(t *testing.T) {
	attrs := func(name, city string) []er.Attribute {
		return []er.Attribute{{Name: "name", Value: name}, {Name: "city", Value: city}}
	}
	ops := []er.StreamOp{
		{Kind: er.StreamInsert, URI: "u:a", Attrs: attrs("alice smith", "berlin")},
		{Kind: er.StreamInsert, URI: "u:b", Attrs: attrs("alice smith", "berlin")},
		{Kind: er.StreamInsert, URI: "u:c", Attrs: attrs("carol jones", "paris")},
		{Kind: er.StreamUpdate, URI: "u:c", Attrs: attrs("alice smith", "berlin")},
		{Kind: er.StreamDelete, URI: "u:b"},
	}

	// Round-trip through the op-log wire format first.
	var buf bytes.Buffer
	if err := er.WriteStreamOps(&buf, ops); err != nil {
		t.Fatal(err)
	}
	decoded, err := er.ReadStreamOps(&buf)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	r, err := er.Open(ctx, er.Config{
		Kind:    er.Dirty,
		Blocker: &er.TokenBlocking{},
		Matcher: &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: 0.5},
		Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i, op := range decoded {
		if err := r.ApplyBatch(ctx, []er.StreamOp{op}); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}

	// Survivors: a and (updated) c, now identical — one match, one cluster.
	a, err := r.Query(ctx, er.Query{URI: "u:a"})
	if err != nil {
		t.Fatal(err)
	}
	c, err := r.Query(ctx, er.Query{URI: "u:c"})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.SameAs) != 1 || a.SameAs[0] != c.ID {
		t.Fatalf("u:a SameAs = %v, want [%d]", a.SameAs, c.ID)
	}

	// Differential check through a snapshot of the public read surface and
	// the batch pipeline.
	snap, matches := snapshotOf(t, r)
	batch := &er.Pipeline{
		Blocker: &er.TokenBlocking{},
		Matcher: &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: 0.5},
	}
	res, err := batch.Run(snap)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches.Len() != matches.Len() {
		t.Fatalf("batch over snapshot found %d matches, streaming %d", res.Matches.Len(), matches.Len())
	}
	res.Matches.Each(func(p er.Pair) bool {
		if !matches.Contains(p.A, p.B) {
			t.Fatalf("batch match %v missing from streaming state", p)
		}
		return true
	})
	if st := mustStats(t, r); st.Live != 2 || st.Clusters != 1 {
		t.Fatalf("stats = %s", st)
	}
}

// TestFacadeStreamingMode checks the Streaming pipeline mode is exported
// and produces the batch result on a static collection.
func TestFacadeStreamingMode(t *testing.T) {
	c, _, err := er.GenerateDirty(er.GenConfig{Seed: 3, Entities: 50})
	if err != nil {
		t.Fatal(err)
	}
	m := &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: 0.5}
	batch, err := (&er.Pipeline{Blocker: &er.TokenBlocking{}, Matcher: m, Mode: er.Batch}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := (&er.Pipeline{Blocker: &er.TokenBlocking{}, Matcher: m, Mode: er.StreamingMode}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Matches.Len() != stream.Matches.Len() || batch.Comparisons != stream.Comparisons {
		t.Fatalf("streaming (%d matches, %d comparisons) != batch (%d matches, %d comparisons)",
			stream.Matches.Len(), stream.Comparisons, batch.Matches.Len(), batch.Comparisons)
	}
}

// TestFacadeStreamingMetaBlocking exercises the public live meta-blocking
// surface: a resolver with a stream-safe MetaBlocker equals the batch meta
// pipeline on a static replay and reports its pruning counters, and the
// streaming pipeline renders the same restructured block collection.
func TestFacadeStreamingMetaBlocking(t *testing.T) {
	c, _, err := er.GenerateDirty(er.GenConfig{Seed: 13, Entities: 60, DupRatio: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	meta := &er.MetaBlocker{Weight: er.ECBS, Prune: er.WEP}
	matcher := &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: 0.5}

	batch := &er.Pipeline{Blocker: &er.TokenBlocking{}, Meta: meta, Matcher: matcher, Mode: er.Batch}
	want, err := batch.Run(c)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	r, err := er.Open(ctx, er.Config{
		Kind:    er.Dirty,
		Blocker: &er.TokenBlocking{},
		Matcher: matcher,
		Meta:    meta,
		Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, d := range c.All() {
		if _, err := r.Insert(ctx, d); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	st := mustStats(t, r)
	if st.Comparisons != want.Comparisons {
		t.Fatalf("streaming comparisons = %d, batch = %d", st.Comparisons, want.Comparisons)
	}
	if st.Matches != want.Matches.Len() {
		t.Fatalf("streaming matches = %d, batch = %d", st.Matches, want.Matches.Len())
	}
	if st.KeptPairs <= 0 || st.CandidatePairs < st.KeptPairs {
		t.Fatalf("pruning counters kept=%d candidates=%d", st.KeptPairs, st.CandidatePairs)
	}
	stream, err := (&er.Pipeline{Blocker: &er.TokenBlocking{}, Meta: meta, Matcher: matcher, Mode: er.StreamingMode}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if got := stream.Blocks; got.Len() != want.Blocks.Len() {
		t.Fatalf("restructured blocks = %d, batch = %d", got.Len(), want.Blocks.Len())
	}
	// The incremental statistics core is exported too: batch-accumulated
	// and stream-maintained graphs weigh identically.
	wg := er.WeightedGraphFromBlocks(want.Blocks)
	if wg.NumBlocks() != want.Blocks.Len() {
		t.Fatalf("WeightedGraphFromBlocks.NumBlocks = %d, want %d", wg.NumBlocks(), want.Blocks.Len())
	}
	if nw := er.NewWeightedBlockingGraph(er.Dirty); nw.NumPairs() != 0 {
		t.Fatalf("NewWeightedBlockingGraph not empty")
	}
	// A batch-only scheme is rejected with its specific reason.
	if _, err := er.Open(ctx, er.Config{
		Kind:    er.Dirty,
		Blocker: &er.TokenBlocking{},
		Matcher: matcher,
		Meta:    &er.MetaBlocker{Weight: er.ARCS, Prune: er.WEP},
	}); err == nil {
		t.Fatal("ARCS-weighted streaming resolver accepted")
	}
}

// TestFacadePersistentResolver exercises the durable storage layer through
// the public API: journal an op stream into a WAL directory, close it,
// reopen it with er.Open, and keep resolving — the recovered state must
// match an in-memory resolver fed the same ops.
func TestFacadePersistentResolver(t *testing.T) {
	attrs := func(name string) []er.Attribute {
		return []er.Attribute{{Name: "name", Value: name}}
	}
	ctx := context.Background()
	memCfg := er.Config{
		Kind:    er.Dirty,
		Blocker: &er.TokenBlocking{},
		Matcher: &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: 0.5},
	}
	cfg := memCfg
	cfg.Dir = t.TempDir()
	cfg.Durable = er.StreamingDurable{NoSync: true, SnapshotEvery: 3}
	r, err := er.Open(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := er.Open(ctx, memCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	ops := []er.StreamOp{
		{Kind: er.StreamInsert, URI: "u:a", Attrs: attrs("alice smith")},
		{Kind: er.StreamInsert, URI: "u:b", Attrs: attrs("alice smith")},
		{Kind: er.StreamInsert, URI: "u:c", Attrs: attrs("carol jones")},
		{Kind: er.StreamUpdate, URI: "u:c", Attrs: attrs("alice smith")},
		{Kind: er.StreamInsert, URI: "u:d", Attrs: attrs("dave brown")},
		{Kind: er.StreamDelete, URI: "u:b"},
	}
	for i, op := range ops {
		if err := r.ApplyBatch(ctx, []er.StreamOp{op}); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if err := mem.ApplyBatch(ctx, []er.StreamOp{op}); err != nil {
			t.Fatalf("mem op %d: %v", i, err)
		}
	}
	// Seal the journal and reopen; the crash-path equivalents (hard stop,
	// torn tail) are enforced by internal/incremental's crash suite.
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := er.Open(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	rec := got.(er.DurableReporter).Recovery()[0]
	if !rec.Recovered || rec.SnapshotSegment == 0 {
		t.Fatalf("recovery = %+v, want recovered with a snapshot anchor", rec)
	}
	// 6 ops at a cadence of 3: the tail beyond the last snapshot is empty.
	if rec.ReplayedRecords != 0 {
		t.Fatalf("replayed %d records, want 0 (snapshot covers all 6 ops)", rec.ReplayedRecords)
	}
	if g, w := mustStats(t, got), mustStats(t, mem); g != w {
		t.Fatalf("recovered stats %+v, want %+v", g, w)
	}
	if _, g := snapshotOf(t, got); g.Len() != mustStats(t, mem).Matches {
		t.Fatalf("recovered %d matches, want %d", g.Len(), mustStats(t, mem).Matches)
	}
	// The recovered resolver keeps accepting the stream.
	more := []er.StreamOp{{Kind: er.StreamInsert, URI: "u:e", Attrs: attrs("carol jones")}}
	if err := got.ApplyBatch(ctx, more); err != nil {
		t.Fatal(err)
	}
	if err := mem.ApplyBatch(ctx, more); err != nil {
		t.Fatal(err)
	}
	if g, w := mustStats(t, got), mustStats(t, mem); g != w {
		t.Fatalf("post-recovery stats %+v, want %+v", g, w)
	}
}

// TestFacadeShardedResolver exercises the public sharded surface end to
// end: the same op stream through a single-node and an in-process sharded
// deployment, bit-equal state; a durable sharded run abandoned whole and
// reopened; and the Pipeline's StreamShards knob.
func TestFacadeShardedResolver(t *testing.T) {
	c, _, err := er.GenerateDirty(er.GenConfig{Seed: 9, Entities: 60})
	if err != nil {
		t.Fatal(err)
	}
	m := &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: 0.5}
	ctx := context.Background()
	open := func(cfg er.Config) er.Resolver {
		t.Helper()
		r, err := er.Open(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		return r
	}
	base := er.Config{Kind: er.Dirty, Blocker: &er.TokenBlocking{}, Matcher: m, Workers: 2}
	single := open(base)
	shCfg := base
	shCfg.Shards = 4
	sh := open(shCfg)
	for _, d := range c.All() {
		if _, err := single.Insert(ctx, d); err != nil {
			t.Fatal(err)
		}
		if _, err := sh.Insert(ctx, d); err != nil {
			t.Fatal(err)
		}
	}
	ss, hs := mustStats(t, single), mustStats(t, sh)
	if ss != hs {
		t.Fatalf("sharded stats %+v diverge from single-node %+v", hs, ss)
	}
	_, sm := snapshotOf(t, single)
	_, hm := snapshotOf(t, sh)
	sm.Each(func(p er.Pair) bool {
		if !hm.Contains(p.A, p.B) {
			t.Fatalf("sharded state misses match %v", p)
		}
		return true
	})

	// Durable: journal into the coordinator and shard WALs, abandon the
	// whole deployment, reopen it.
	prCfg := base
	prCfg.Shards = 3
	prCfg.Dir = t.TempDir()
	prCfg.Durable = er.StreamingDurable{NoSync: true, SnapshotEvery: 16}
	pr := open(prCfg)
	for _, d := range c.All() {
		if _, err := pr.Insert(ctx, d); err != nil {
			t.Fatal(err)
		}
	}
	pr.(er.DurableReporter).Abandon()
	re := open(prCfg)
	for i, rec := range re.(er.DurableReporter).Recovery() {
		if !rec.Recovered {
			t.Fatalf("journal %d of the reopened deployment found no state", i)
		}
	}
	if st := mustStats(t, re); st != ss {
		t.Fatalf("durable sharded stats %+v diverge from single-node %+v after reopen", st, ss)
	}

	// Pipeline knob: StreamShards replays through the sharded resolver.
	res, err := (&er.Pipeline{Blocker: &er.TokenBlocking{}, Matcher: m, Mode: er.StreamingMode, StreamShards: 4}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches.Len() != ss.Matches || res.Comparisons != ss.Comparisons {
		t.Fatalf("StreamShards pipeline (%d matches, %d comparisons) != resolver (%d matches, %d comparisons)",
			res.Matches.Len(), res.Comparisons, ss.Matches, ss.Comparisons)
	}
}
