package incremental_test

import (
	"context"
	"testing"

	"entityres/internal/blocking"
	"entityres/internal/entity"
	"entityres/internal/incremental"
	"entityres/internal/matching"
	"entityres/internal/metablocking"
)

// The sharding hooks on the single-node resolver: the DeltaFilter pair
// ownership rule and the non-reconciling accessors a shard server and the
// coordinator read (Counters, MatchEdges, EachSlot; MatchNeighbors is the
// tests' per-handle view of the same graph).

func hookConfig(filter func(d *entity.Description) func(key string, other *entity.Description) bool) incremental.Config {
	return incremental.Config{
		Kind:        entity.Dirty,
		Blocker:     &blocking.TokenBlocking{},
		Matcher:     &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5},
		DeltaFilter: filter,
	}
}

func hookDesc(uri, name string) *entity.Description {
	return &entity.Description{ID: -1, URI: uri, Attrs: []entity.Attribute{{Name: "name", Value: name}}}
}

// TestDeltaFilterOwnership: a filter that claims every pair reproduces the
// unfiltered resolver exactly; a filter that claims none evaluates nothing;
// a first-shared-key filter (the sharded ownership rule) still counts every
// distinct pair exactly once.
func TestDeltaFilterOwnership(t *testing.T) {
	feed := func(r *incremental.Resolver) {
		t.Helper()
		ctx := context.Background()
		for _, d := range []*entity.Description{
			hookDesc("u:a", "alice smith berlin"),
			hookDesc("u:b", "alice smith berlin"),
			hookDesc("u:c", "carol jones paris"),
			hookDesc("u:d", "alice jones berlin"),
		} {
			if _, err := r.Insert(ctx, d); err != nil {
				t.Fatal(err)
			}
		}
	}
	plain, err := incremental.New(hookConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	feed(plain)

	all, err := incremental.New(hookConfig(func(*entity.Description) func(string, *entity.Description) bool {
		return func(string, *entity.Description) bool { return true }
	}))
	if err != nil {
		t.Fatal(err)
	}
	feed(all)
	if ps, as := mustStats(t, plain), mustStats(t, all); ps != as {
		t.Fatalf("claim-everything filter diverges: %+v vs %+v", as, ps)
	}

	none, err := incremental.New(hookConfig(func(*entity.Description) func(string, *entity.Description) bool {
		return func(string, *entity.Description) bool { return false }
	}))
	if err != nil {
		t.Fatal(err)
	}
	feed(none)
	if st := mustStats(t, none); st.Comparisons != 0 || st.Matches != 0 {
		t.Fatalf("claim-nothing filter still evaluated pairs: %+v", st)
	}

	// The sharded ownership rule with a single owner (everything shares the
	// first key owner) must also equal the unfiltered run: each distinct
	// pair is claimed exactly once, under its first shared key.
	keyer := (&blocking.TokenBlocking{}).StreamKeyer()
	firstShared := func(a, b []string) (string, bool) {
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			switch {
			case a[i] == b[j]:
				return a[i], true
			case a[i] < b[j]:
				i++
			default:
				j++
			}
		}
		return "", false
	}
	owned, err := incremental.New(hookConfig(func(d *entity.Description) func(string, *entity.Description) bool {
		dKeys := blocking.DistinctKeys(keyer(d))
		return func(key string, other *entity.Description) bool {
			first, ok := firstShared(dKeys, blocking.DistinctKeys(keyer(other)))
			return ok && first == key
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	feed(owned)
	if ps, os := mustStats(t, plain), mustStats(t, owned); ps != os {
		t.Fatalf("first-shared-key filter diverges: %+v vs %+v", os, ps)
	}
}

// TestCoordinatorAccessors: MatchNeighbors/MatchEdges mirror the match
// graph without reconciling, EachSlot walks dead and live slots in handle
// order with early stop, and Counters never reconciles deferred meta work.
func TestCoordinatorAccessors(t *testing.T) {
	r, err := incremental.New(hookConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	a, err := r.Insert(ctx, hookDesc("u:a", "alice smith"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Insert(ctx, hookDesc("u:b", "alice smith"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := r.Insert(ctx, hookDesc("u:c", "carol jones"))
	if err != nil {
		t.Fatal(err)
	}
	if nb := r.MatchNeighbors(a); len(nb) != 1 || nb[0] != b {
		t.Fatalf("MatchNeighbors(%d) = %v, want [%d]", a, nb, b)
	}
	if nb := r.MatchNeighbors(c); len(nb) != 0 {
		t.Fatalf("MatchNeighbors(%d) = %v, want none", c, nb)
	}
	edges := r.MatchEdges()
	if len(edges) != 1 || edges[0].A != a || edges[0].B != b {
		t.Fatalf("MatchEdges = %v", edges)
	}
	if err := r.Delete(c); err != nil {
		t.Fatal(err)
	}
	var seen []entity.ID
	var liveness []bool
	r.EachSlot(func(id entity.ID, live bool, d *entity.Description) bool {
		seen = append(seen, id)
		liveness = append(liveness, live)
		return true
	})
	if len(seen) != 3 || seen[0] != 0 || seen[2] != 2 || !liveness[0] || liveness[2] {
		t.Fatalf("EachSlot walked %v (live %v)", seen, liveness)
	}
	n := 0
	r.EachSlot(func(entity.ID, bool, *entity.Description) bool { n++; return false })
	if n != 1 {
		t.Fatalf("EachSlot ignored early stop: %d slots", n)
	}
	if st := r.Counters(); st.Inserts != 3 || st.Deletes != 1 || st.Live != 2 {
		t.Fatalf("Counters = %+v", st)
	}
}

// TestCountersAndMergeWithoutReconcile: under live meta-blocking, Counters
// and reading the weighted graph must not trigger the deferred reconcile —
// a shard server reports Counters on every acknowledgement without burning
// shard-local comparisons.
func TestCountersAndMergeWithoutReconcile(t *testing.T) {
	cfg := hookConfig(nil)
	cfg.Meta = &metablocking.MetaBlocker{Weight: metablocking.CBS, Prune: metablocking.WEP}
	r, err := incremental.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, d := range []*entity.Description{hookDesc("u:a", "alice smith"), hookDesc("u:b", "alice smith")} {
		if _, err := r.Insert(ctx, d); err != nil {
			t.Fatal(err)
		}
	}
	// No read has happened: everything is deferred, and the accessors must
	// keep it that way.
	if st := r.Counters(); st.Comparisons != 0 || st.Inserts != 2 {
		t.Fatalf("Counters reconciled deferred meta work: %+v", st)
	}
	merged := incremental.WeightedOf(r)
	if merged == nil {
		t.Fatal("no weighted graph on a meta resolver")
	}
	if merged.NumPairs() != 1 {
		t.Fatalf("merged graph holds %d pairs, want 1", merged.NumPairs())
	}
	if st := r.Counters(); st.Comparisons != 0 {
		t.Fatalf("reading the weighted graph reconciled deferred meta work: %+v", st)
	}
	// Stats DOES reconcile; afterwards the counters agree.
	if st := mustStats(t, r); st.Comparisons != 1 || st.Matches != 1 || st.CandidatePairs != 1 {
		t.Fatalf("Stats after reconcile = %+v", st)
	}
	// A non-meta resolver maintains no weighted graph.
	plain, err := incremental.New(hookConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	if incremental.WeightedOf(plain) != nil {
		t.Fatal("a weighted graph on a plain resolver")
	}
}

// TestLastRecord: the most recently applied operation is reported in
// journal-record form, survives snapshot compaction, and is absent on a
// fresh resolver.
func TestLastRecord(t *testing.T) {
	r, err := incremental.New(hookConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.LastRecord(); ok {
		t.Fatal("fresh resolver reports a last record")
	}
	ctx := context.Background()
	id, err := r.Insert(ctx, hookDesc("u:a", "alice smith"))
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := r.LastRecord()
	if !ok || rec.Kind != incremental.OpInsert || rec.ID != id || rec.URI != "u:a" {
		t.Fatalf("LastRecord after insert = %+v, %v", rec, ok)
	}
	if err := r.Delete(id); err != nil {
		t.Fatal(err)
	}
	if rec, _ := r.LastRecord(); rec.Kind != incremental.OpDelete || rec.ID != id {
		t.Fatalf("LastRecord after delete = %+v", rec)
	}

	// Durable: compaction folds the record into the snapshot, and a reopen
	// with an empty WAL tail still reports it — the fan-out-tear donor's
	// compaction-boundary guarantee.
	dir := t.TempDir()
	cfg := hookConfig(nil)
	cfg.Durable = incremental.DurableOptions{NoSync: true, SnapshotEvery: 1}
	pr, err := incremental.OpenResolver(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	uid, err := pr.Insert(ctx, hookDesc("u:b", "bob jones"))
	if err != nil {
		t.Fatal(err)
	}
	if err := pr.Update(ctx, uid, []entity.Attribute{{Name: "name", Value: "bob j"}}); err != nil {
		t.Fatal(err)
	}
	if err := pr.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := incremental.OpenResolver(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Recovery().ReplayedRecords != 0 {
		t.Fatalf("tail not empty: %d records", re.Recovery().ReplayedRecords)
	}
	if rec, ok := re.LastRecord(); !ok || rec.Kind != incremental.OpUpdate || rec.ID != uid {
		t.Fatalf("LastRecord after snapshot-only reopen = %+v, %v", rec, ok)
	}
}
