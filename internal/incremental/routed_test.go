package incremental

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"entityres/internal/blocking"
	"entityres/internal/entity"
	"entityres/internal/matching"
)

func routedInsert(seq uint64, id entity.ID, uri, name string) RoutedOp {
	return RoutedOp{Seq: seq, Kind: OpInsert, ID: id, URI: uri,
		Attrs: []entity.Attribute{{Name: "name", Value: name}}}
}

// applyFrame applies ops as one routed frame, collecting no neighbors.
func applyFrame(r *Resolver, ops ...RoutedOp) error {
	return r.ApplyRouted(context.Background(), ops, nil)
}

// TestApplyRoutedStream drives the shard-side routed apply path directly:
// full payloads, slot-advance records, idempotent replay, gap refusal and
// the materializing update of a slot-advanced description.
func TestApplyRoutedStream(t *testing.T) {
	r := newTestResolver(t, entity.Dirty)

	// One frame: two owned inserts that match, then a slot-advance for a
	// third this "shard" owns no keys of.
	if err := applyFrame(r,
		routedInsert(1, 0, "u:a", "alice smith"),
		routedInsert(2, 1, "u:b", "alice smith"),
		RoutedOp{Seq: 3, Kind: OpInsert, Advance: true, ID: 2},
	); err != nil {
		t.Fatalf("ApplyRouted(1..3): %v", err)
	}
	if got := r.LastSeq(); got != 3 {
		t.Fatalf("LastSeq = %d, want 3", got)
	}
	st := mustStats(t, r)
	if st.Inserts != 3 || st.Live != 2 || st.Matches != 1 {
		t.Fatalf("stats after routed inserts = %s", st)
	}
	if got := mustMatchedWith(t, r, 0); !reflect.DeepEqual(got, []entity.ID{1}) {
		t.Fatalf("MatchedWith(0) = %v", got)
	}
	if got := mustMatchedWith(t, r, 2); got != nil {
		t.Fatalf("MatchedWith(placeholder) = %v", got)
	}

	// Idempotent replay: a re-sent record is acknowledged without applying.
	if err := applyFrame(r, routedInsert(2, 1, "u:b", "alice smith")); err != nil {
		t.Fatalf("replayed record refused: %v", err)
	}
	if st2 := mustStats(t, r); st2.Inserts != 3 {
		t.Fatalf("replayed record re-applied: %s", st2)
	}
	// A gap is refused, as is a zero sequence number.
	if err := applyFrame(r, routedInsert(6, 3, "u:z", "zoe")); err == nil {
		t.Fatal("gapped record accepted")
	}
	if err := applyFrame(r, RoutedOp{Seq: 0, Kind: OpInsert}); err == nil {
		t.Fatal("zero-sequence record accepted")
	}

	// Validation: wrong insert handle, out-of-range target, unknown kind,
	// URI collision with a live handle.
	for _, bad := range []RoutedOp{
		routedInsert(4, 7, "u:x", "xena"),
		{Seq: 4, Kind: OpUpdate, ID: 9},
		{Seq: 4, Kind: OpKind(99)},
		routedInsert(4, 3, "u:a", "impostor"),
	} {
		if err := applyFrame(r, bad); err == nil {
			t.Fatalf("invalid record %+v accepted", bad)
		}
	}
	if got := r.LastSeq(); got != 3 {
		t.Fatalf("refused records advanced LastSeq to %d", got)
	}

	// A routed update materializes the slot-advanced placeholder: it joins
	// the live set, the URI table and the match graph.
	up := RoutedOp{Seq: 4, Kind: OpUpdate, ID: 2, URI: "u:c",
		Attrs: []entity.Attribute{{Name: "name", Value: "alice smith"}}}
	if err := applyFrame(r, up); err != nil {
		t.Fatalf("materializing update: %v", err)
	}
	if id, ok := r.Lookup("u:c"); !ok || id != 2 {
		t.Fatalf("materialized URI lookup = %d, %v", id, ok)
	}
	if got := mustMatchedWith(t, r, 2); !reflect.DeepEqual(got, []entity.ID{0, 1}) {
		t.Fatalf("MatchedWith(materialized) = %v", got)
	}

	// An advance update only moves the counter; an owned update re-resolves.
	if err := applyFrame(r, RoutedOp{Seq: 5, Kind: OpUpdate, Advance: true, ID: 0}); err != nil {
		t.Fatal(err)
	}
	if err := applyFrame(r, RoutedOp{Seq: 6, Kind: OpUpdate, ID: 1,
		Attrs: []entity.Attribute{{Name: "name", Value: "someone else entirely"}}}); err != nil {
		t.Fatal(err)
	}
	if got := mustMatchedWith(t, r, 1); len(got) != 0 {
		t.Fatalf("re-keyed update still matched: %v", got)
	}

	// Deletes clear live slots (advance or not) and count on dead ones.
	if err := applyFrame(r, RoutedOp{Seq: 7, Kind: OpDelete, Advance: true, ID: 1}); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Lookup("u:b"); ok {
		t.Fatal("advance delete left the slot live")
	}
	if err := applyFrame(r, RoutedOp{Seq: 8, Kind: OpDelete, ID: 1}); err != nil {
		t.Fatal(err)
	}
	st = mustStats(t, r)
	if st.Inserts != 3 || st.Updates != 3 || st.Deletes != 2 || st.Live != 2 {
		t.Fatalf("final stats = %s", st)
	}
	if got := r.LastSeq(); got != 8 {
		t.Fatalf("LastSeq = %d, want 8", got)
	}
}

// TestEachDeltaCandidate checks the candidate enumeration a networked
// coordinator uses to reconstruct per-shard comparison counts: each
// candidate pair exactly once, under its first shared blocking key.
func TestEachDeltaCandidate(t *testing.T) {
	r := newTestResolver(t, entity.Dirty)
	ctx := context.Background()
	a, _ := r.Insert(ctx, person("u:a", "alice smith", "berlin"))
	b, _ := r.Insert(ctx, person("u:b", "alice smith", "berlin"))
	c, _ := r.Insert(ctx, person("u:c", "carol jones", "nowhere"))

	seen := map[entity.ID]string{}
	r.EachDeltaCandidate(b, func(other entity.ID, claimKey string) bool {
		if _, dup := seen[other]; dup {
			t.Fatalf("candidate %d visited twice", other)
		}
		seen[other] = claimKey
		return true
	})
	key, ok := seen[a]
	if len(seen) != 1 || !ok || key == "" {
		t.Fatalf("candidates of %d = %v, want exactly {%d}", b, seen, a)
	}
	// The claim key is the smallest shared key of the pair.
	ka, kb := r.blocks.Keys(a), r.blocks.Keys(b)
	if fs := smallestShared(ka, kb); fs != key {
		t.Fatalf("claim key %q, first shared of %v and %v is %q", key, ka, kb, fs)
	}
	if fs := smallestShared(r.blocks.Keys(c), kb); fs != "" {
		t.Fatalf("disjoint key sets share %q", fs)
	}

	// Early stop and the not-live guard.
	calls := 0
	r.EachDeltaCandidate(a, func(entity.ID, string) bool { calls++; return false })
	if calls > 1 {
		t.Fatalf("enumeration continued after false: %d calls", calls)
	}
	r.EachDeltaCandidate(99, func(entity.ID, string) bool {
		t.Fatal("candidates enumerated for a dead handle")
		return false
	})
}

// smallestShared returns the smallest key of a (ascending) that b holds,
// "" when none.
func smallestShared(a, b []string) string {
	for _, k := range a {
		if slices.Contains(b, k) {
			return k
		}
	}
	return ""
}

// TestFrontierWalk pins the frontier walk every apply path and
// EachDeltaCandidate share: on a clean-clean index it offers only the
// other source's co-blocked records, each candidate it takes once and
// under the smallest key it shares with the walked record, a declined
// candidate again under its next key, and never the walked range's
// records above the walked one.
func TestFrontierWalk(t *testing.T) {
	r := newTestResolver(t, entity.CleanClean)
	for _, rec := range []struct {
		src  int
		text string
	}{{0, "kx ky"}, {0, "kx"}, {1, "kx ky"}, {1, "ky kz"}, {1, "kx kz"}} {
		d := entity.NewDescription("")
		d.Source = rec.src
		d.Add("t", rec.text)
		if _, err := r.Insert(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}
	type visit struct {
		key string
		y   entity.ID
	}
	walk := func(x, hi entity.ID, take func(visit) bool) []visit {
		var got []visit
		r.walk(x, hi, func(key string, y entity.ID) bool {
			got = append(got, visit{key, y})
			return take(visit{key, y})
		})
		return got
	}
	always := func(visit) bool { return true }
	// 0 (source 0) meets 2 under kx and ky, 4 under kx and 3 under ky:
	// taken candidates are offered once, at their smallest shared key.
	if got, want := walk(0, 1, always), []visit{{"kx", 2}, {"kx", 4}, {"ky", 3}}; !slices.Equal(got, want) {
		t.Fatalf("walk(0) = %v, want %v", got, want)
	}
	// A declined candidate is offered again under its next shared key.
	declineKx := func(v visit) bool { return v.key != "kx" }
	if got, want := walk(0, 1, declineKx), []visit{{"kx", 2}, {"kx", 4}, {"ky", 2}, {"ky", 3}}; !slices.Equal(got, want) {
		t.Fatalf("walk(0) declining kx = %v, want %v", got, want)
	}
	// Walking 2 within the range [2, 5): 0 and 1 lie below the range and
	// are offered; 3 and 4 lie above 2 in it and are left to their own walk.
	if got, want := walk(2, 5, always), []visit{{"kx", 0}, {"kx", 1}}; !slices.Equal(got, want) {
		t.Fatalf("walk(2) in [2,5) = %v, want %v", got, want)
	}
	// Walking 4 as the last of the range meets 0 and 1; record 2 and 3
	// share its source.
	if got, want := walk(4, 5, always), []visit{{"kx", 0}, {"kx", 1}}; !slices.Equal(got, want) {
		t.Fatalf("walk(4) = %v, want %v", got, want)
	}
}

// TestRoutedReplay journals a routed stream durably in frames, crashes past
// a snapshot boundary, and recovers: LastSeq and the counters must restore
// exactly, and the next record in sequence must still apply.
func TestRoutedReplay(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Kind:    entity.Dirty,
		Blocker: &blocking.TokenBlocking{},
		Matcher: &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5},
		Durable: DurableOptions{SnapshotEvery: 2, NoSync: true},
	}
	r, err := OpenResolver(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Three frames, three journal records: the snapshot lands after the
	// second, so recovery replays the last frame as one OpBatch.
	frames := [][]RoutedOp{
		{routedInsert(1, 0, "u:a", "alice smith"), {Seq: 2, Kind: OpInsert, Advance: true, ID: 1}},
		{routedInsert(3, 2, "u:c", "alice smith")},
		{{Seq: 4, Kind: OpUpdate, Advance: true, ID: 1}, {Seq: 5, Kind: OpDelete, ID: 0}},
	}
	for _, f := range frames {
		if err := applyFrame(r, f...); err != nil {
			t.Fatalf("ApplyRouted(%d..): %v", f[0].Seq, err)
		}
	}
	if got := r.Perf().JournalAppends; got != int64(len(frames)) {
		t.Fatalf("%d journal appends for %d frames", got, len(frames))
	}
	want := mustStats(t, r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenResolver(dir, cfg)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer re.Close()
	if got := re.LastSeq(); got != 5 {
		t.Fatalf("recovered LastSeq = %d, want 5", got)
	}
	if got := mustStats(t, re); got != want {
		t.Fatalf("recovered stats = %s, want %s", got, want)
	}
	if rec := re.Recovery(); rec.ReplayedRecords != 1 {
		t.Fatalf("recovery replayed %d records, want the last frame's one", rec.ReplayedRecords)
	}
	if err := applyFrame(re, routedInsert(6, 3, "u:d", "dora")); err != nil {
		t.Fatalf("post-recovery record: %v", err)
	}
	// Replay is as strict about sequence as the live path: hand-feeding a
	// gapped record through the replay entry point is refused.
	if err := re.replayRecord(Record{Kind: OpInsert, Seq: 9, ID: 4}); err == nil {
		t.Fatal("gapped journal record replayed")
	}
}

// TestBootstrap ships a whole shard state into pristine resolvers — the
// remote-rejoin state transfer — and checks the restored stream position,
// counters, match graph and index, in memory and durably.
func TestBootstrap(t *testing.T) {
	cfg := Config{
		Kind:    entity.Dirty,
		Blocker: &blocking.TokenBlocking{},
		Matcher: &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5},
		Durable: DurableOptions{NoSync: true},
	}
	im := NewImage(cfg)
	im.Slots = []ImageSlot{
		NewImageSlot(entity.NewDescription("u:a").Add("name", "alice smith"), []string{"alice", "smith"}),
		{}, // placeholder: slot-advanced, content-free
		NewImageSlot(entity.NewDescription("u:c").Add("name", "alice smith"), []string{"alice", "smith"}),
	}
	im.Matches = [][2]entity.ID{{0, 2}}
	im.Stats = ImageStats{Inserts: 3, Updates: 2, Deletes: 1, Comparisons: 4}
	im.LastSeq = 6
	check := func(t *testing.T, r *Resolver) {
		t.Helper()
		if got := r.LastSeq(); got != 6 {
			t.Fatalf("bootstrapped LastSeq = %d, want 6", got)
		}
		st := mustStats(t, r)
		if st.Inserts != 3 || st.Updates != 2 || st.Deletes != 1 || st.Comparisons != 4 || st.Live != 2 {
			t.Fatalf("bootstrapped stats = %s", st)
		}
		if got := mustMatchedWith(t, r, 0); !reflect.DeepEqual(got, []entity.ID{2}) {
			t.Fatalf("bootstrapped MatchedWith(0) = %v", got)
		}
		if id, ok := r.Lookup("u:c"); !ok || id != 2 {
			t.Fatalf("bootstrapped Lookup = %d, %v", id, ok)
		}
		// The shipped index is live: the next routed record in sequence
		// resolves against it.
		if err := applyFrame(r, routedInsert(7, 3, "u:d", "alice smith")); err != nil {
			t.Fatalf("post-bootstrap record: %v", err)
		}
		if got := mustMatchedWith(t, r, 3); !reflect.DeepEqual(got, []entity.ID{0, 2}) {
			t.Fatalf("post-bootstrap MatchedWith = %v", got)
		}
	}

	t.Run("memory", func(t *testing.T) {
		r := newTestResolver(t, entity.Dirty)
		if err := r.Bootstrap(im); err != nil {
			t.Fatal(err)
		}
		check(t, r)
		// Bootstrap demands pristine state.
		if err := r.Bootstrap(im); err == nil {
			t.Fatal("bootstrap over applied state accepted")
		}
	})

	t.Run("durable", func(t *testing.T) {
		dir := t.TempDir()
		r, err := OpenResolver(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Bootstrap(im); err != nil {
			t.Fatal(err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		// The shipped state checkpointed immediately: a reopen recovers it.
		re, err := OpenResolver(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		check(t, re)
	})

	t.Run("invalid", func(t *testing.T) {
		dup := *im
		dup.Slots = append([]ImageSlot(nil), im.Slots...)
		dup.Slots[1] = dup.Slots[0]
		if err := newTestResolver(t, entity.Dirty).Bootstrap(&dup); err == nil {
			t.Fatal("duplicate URI accepted")
		}
		dead := *im
		dead.Matches = [][2]entity.ID{{0, 1}}
		if err := newTestResolver(t, entity.Dirty).Bootstrap(&dead); err == nil {
			t.Fatal("edge to a dead slot accepted")
		}
		other := *im
		other.Blocker = "standard"
		if err := newTestResolver(t, entity.Dirty).Bootstrap(&other); err == nil {
			t.Fatal("image of another blocker accepted")
		}
	})
}
