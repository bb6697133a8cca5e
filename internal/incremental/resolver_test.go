package incremental

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"entityres/internal/blocking"
	"entityres/internal/entity"
	"entityres/internal/matching"
)

func person(uri, name, city string) *entity.Description {
	d := entity.NewDescription(uri)
	d.Add("name", name).Add("city", city)
	return d
}

func newTestResolver(t *testing.T, kind entity.Kind) *Resolver {
	t.Helper()
	r, err := New(Config{
		Kind:    kind,
		Blocker: &blocking.TokenBlocking{},
		Matcher: &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestResolverInsertMatch(t *testing.T) {
	r := newTestResolver(t, entity.Dirty)
	ctx := context.Background()
	a, err := r.Insert(ctx, person("u:a", "alice smith", "berlin"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Insert(ctx, person("u:b", "alice smith", "berlin"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Insert(ctx, person("u:c", "completely different tokens", "elsewhere")); err != nil {
		t.Fatal(err)
	}
	m := mustMatches(t, r)
	if m.Len() != 1 || !m.Contains(a, b) {
		t.Fatalf("matches = %v, want exactly {%d,%d}", m.Pairs(), a, b)
	}
	if got := mustClusters(t, r); !reflect.DeepEqual(got, [][]entity.ID{{a, b}}) {
		t.Fatalf("clusters = %v", got)
	}
	st := mustStats(t, r)
	if st.Inserts != 3 || st.Live != 3 || st.Matches != 1 || st.Clusters != 1 {
		t.Fatalf("stats = %s", st)
	}
	if s := st.String(); !strings.Contains(s, "live=3") || !strings.Contains(s, "matches=1") {
		t.Fatalf("Stats.String() = %q", s)
	}
	if r.Kind() != entity.Dirty {
		t.Fatalf("Kind = %v", r.Kind())
	}
	// The materialized blocks must equal a batch token-blocking build over
	// the live descriptions (IDs coincide on an insert-only stream).
	snap, _ := mustSnapshot(t, r)
	want, err := (&blocking.TokenBlocking{}).Block(snap)
	if err != nil {
		t.Fatal(err)
	}
	got := r.Blocks()
	if got.Len() != want.Len() || got.TotalComparisons() != want.TotalComparisons() {
		t.Fatalf("Blocks() has %d blocks / %d comparisons, batch build %d / %d",
			got.Len(), got.TotalComparisons(), want.Len(), want.TotalComparisons())
	}
}

func TestResolverDeleteSplitsCluster(t *testing.T) {
	r := newTestResolver(t, entity.Dirty)
	ctx := context.Background()
	// a-b and b-c match (shared tokens), a-c do not: b is the bridge.
	a, _ := r.Insert(ctx, person("u:a", "alice smith", "berlin"))
	b, err := r.Insert(ctx, person("u:b", "alice smith jones", "berlin paris"))
	if err != nil {
		t.Fatal(err)
	}
	c, _ := r.Insert(ctx, person("u:c", "alice jones", "paris"))
	if !mustMatches(t, r).Contains(a, b) || !mustMatches(t, r).Contains(b, c) {
		t.Fatalf("expected bridge matches, got %v", mustMatches(t, r).Pairs())
	}
	if err := r.Delete(b); err != nil {
		t.Fatal(err)
	}
	m := mustMatches(t, r)
	for _, p := range m.Pairs() {
		if p.Contains(b) {
			t.Fatalf("deleted description still matched: %v", p)
		}
	}
	if _, ok := r.Get(b); ok {
		t.Fatal("deleted description still gettable")
	}
	if _, ok := r.Lookup("u:b"); ok {
		t.Fatal("deleted URI still resolvable")
	}
	// a and c must now be in different clusters (or singletons).
	for _, cl := range mustClusters(t, r) {
		has := func(id entity.ID) bool {
			for _, x := range cl {
				if x == id {
					return true
				}
			}
			return false
		}
		if has(a) && has(c) {
			t.Fatalf("cluster %v survived bridge deletion", cl)
		}
	}
}

func TestResolverUpdateRekeys(t *testing.T) {
	r := newTestResolver(t, entity.Dirty)
	ctx := context.Background()
	a, _ := r.Insert(ctx, person("u:a", "alice smith", "berlin"))
	b, _ := r.Insert(ctx, person("u:b", "alice smith", "berlin"))
	if !mustMatches(t, r).Contains(a, b) {
		t.Fatal("expected initial match")
	}
	// Rewriting b away from a's tokens must retire the match...
	if err := r.Update(ctx, b, []entity.Attribute{{Name: "name", Value: "totally unrelated"}}); err != nil {
		t.Fatal(err)
	}
	if mustMatches(t, r).Len() != 0 {
		t.Fatalf("matches after divergent update: %v", mustMatches(t, r).Pairs())
	}
	// ...and rewriting it back must rediscover it.
	if err := r.Update(ctx, b, []entity.Attribute{{Name: "name", Value: "alice smith"}, {Name: "city", Value: "berlin"}}); err != nil {
		t.Fatal(err)
	}
	if !mustMatches(t, r).Contains(a, b) {
		t.Fatal("match not rediscovered after convergent update")
	}
	if d, ok := r.Get(b); !ok || len(d.Attrs) != 2 {
		t.Fatalf("updated description = %v", d)
	}
}

func TestResolverErrors(t *testing.T) {
	r := newTestResolver(t, entity.Dirty)
	ctx := context.Background()
	if _, err := r.Insert(ctx, nil); err == nil {
		t.Fatal("nil insert accepted")
	}
	if _, err := r.Insert(ctx, person("u:a", "x", "y")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Insert(ctx, person("u:a", "z", "w")); err == nil {
		t.Fatal("duplicate URI accepted")
	}
	if err := r.Update(ctx, 99, nil); err == nil {
		t.Fatal("update of unknown handle accepted")
	}
	if err := r.Delete(99); err == nil {
		t.Fatal("delete of unknown handle accepted")
	}
	d := &entity.Description{ID: -1, Source: 1, URI: "u:s1"}
	if _, err := r.Insert(ctx, d); err == nil {
		t.Fatal("dirty resolver accepted source 1")
	}

	if _, err := New(Config{Matcher: &matching.Matcher{Sim: &matching.TokenJaccard{}}}); err == nil {
		t.Fatal("nil blocker accepted")
	}
	if _, err := New(Config{Blocker: &blocking.TokenBlocking{}}); err == nil {
		t.Fatal("nil matcher accepted")
	}
	coll := entity.NewCollection(entity.Dirty)
	if _, err := New(Config{
		Blocker: &blocking.TokenBlocking{},
		Matcher: &matching.Matcher{Sim: matching.NewTFIDFCosine(coll, nil), Threshold: 0.5},
	}); err == nil {
		t.Fatal("corpus-dependent matcher accepted")
	}
}

// TestResolverCancelledInsertRollsBack: an insert under a done context is
// refused at admission and leaves no trace — the URI stays unknown, the
// stats and the comparison count are untouched — and the stream keeps
// working afterwards.
func TestResolverCancelledInsertRollsBack(t *testing.T) {
	r := newTestResolver(t, entity.Dirty)
	ctx := context.Background()
	if _, err := r.Insert(ctx, person("u:a", "alice smith", "berlin")); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Insert(cancelled, person("u:b", "alice smith", "berlin")); err == nil {
		t.Fatal("cancelled insert succeeded")
	}
	if _, ok := r.Lookup("u:b"); ok {
		t.Fatal("cancelled insert left its URI live")
	}
	if st := mustStats(t, r); st.Live != 1 || st.Matches != 0 {
		t.Fatalf("state after cancelled insert: %s", st)
	}
	// Retrying yields exactly the one comparison a clean insert performs.
	if _, err := r.Insert(ctx, person("u:b", "alice smith", "berlin")); err != nil {
		t.Fatal(err)
	}
	if mustMatches(t, r).Len() != 1 {
		t.Fatalf("matches = %d, want 1", mustMatches(t, r).Len())
	}
	if st := mustStats(t, r); st.Comparisons != 1 {
		t.Fatalf("comparisons = %d, want 1 (refused ops must not count)", st.Comparisons)
	}
}

func TestResolverCleanClean(t *testing.T) {
	r := newTestResolver(t, entity.CleanClean)
	ctx := context.Background()
	a, err := r.Insert(ctx, person("kb0:a", "alice smith", "berlin"))
	if err != nil {
		t.Fatal(err)
	}
	// Same-source twin must NOT match even with identical tokens.
	if _, err := r.Insert(ctx, person("kb0:a2", "alice smith", "berlin")); err != nil {
		t.Fatal(err)
	}
	d := person("kb1:a", "alice smith", "berlin")
	d.Source = 1
	b, err := r.Insert(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	m := mustMatches(t, r)
	if !m.Contains(a, b) {
		t.Fatal("cross-source match missing")
	}
	m.Each(func(p entity.Pair) bool {
		da, _ := r.Get(p.A)
		db, _ := r.Get(p.B)
		if da.Source == db.Source {
			t.Fatalf("same-source pair matched: %v", p)
		}
		return true
	})
}

// failingWriter errors after n bytes, covering the encode error path.
type failingWriter struct{ n int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.n -= len(p); w.n < 0 {
		return 0, fmt.Errorf("disk full")
	}
	return len(p), nil
}

func TestWriteOpsError(t *testing.T) {
	ops := []Op{{Kind: OpInsert, URI: "u:a", Attrs: []entity.Attribute{{Name: "n", Value: strings.Repeat("x", 4096)}}}}
	if err := WriteOps(&failingWriter{n: 16}, ops); err == nil {
		t.Fatal("WriteOps on a failing writer succeeded")
	}
}

func TestOpLogRoundTrip(t *testing.T) {
	ops := []Op{
		{Kind: OpInsert, URI: "u:a", Attrs: []entity.Attribute{{Name: "name", Value: "alice \"quoted\" smith"}}},
		{Kind: OpInsert, URI: "u:b", Source: 0, Attrs: []entity.Attribute{{Name: "name", Value: "alice smith"}}},
		{Kind: OpUpdate, URI: "u:a", Attrs: []entity.Attribute{{Name: "name", Value: "alice jones"}}},
		{Kind: OpDelete, URI: "u:b"},
	}
	var buf bytes.Buffer
	if err := WriteOps(&buf, ops); err != nil {
		t.Fatal(err)
	}
	got, err := ReadOps(strings.NewReader("# a comment\n\n" + buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ops) {
		t.Fatalf("round trip:\ngot  %+v\nwant %+v", got, ops)
	}

	if _, err := ReadOps(strings.NewReader(`{"op":"frobnicate","uri":"u:x"}`)); err == nil {
		t.Fatal("unknown op kind accepted")
	}
	if _, err := ReadOps(strings.NewReader(`not json`)); err == nil {
		t.Fatal("malformed line accepted")
	}
}

func TestApplyOps(t *testing.T) {
	r := newTestResolver(t, entity.Dirty)
	ctx := context.Background()
	ops := []Op{
		{Kind: OpInsert, URI: "u:a", Attrs: []entity.Attribute{{Name: "name", Value: "alice smith"}, {Name: "city", Value: "berlin"}}},
		{Kind: OpInsert, URI: "u:b", Attrs: []entity.Attribute{{Name: "name", Value: "alice smith"}, {Name: "city", Value: "berlin"}}},
		{Kind: OpUpdate, URI: "u:b", Attrs: []entity.Attribute{{Name: "name", Value: "someone else entirely"}}},
		{Kind: OpDelete, URI: "u:a"},
	}
	for i, op := range ops {
		if err := r.Apply(ctx, op); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if st := mustStats(t, r); st.Live != 1 || st.Matches != 0 || st.Inserts != 2 || st.Updates != 1 || st.Deletes != 1 {
		t.Fatalf("stats = %s", st)
	}
	if err := r.Apply(ctx, Op{Kind: OpUpdate, URI: "u:missing"}); err == nil {
		t.Fatal("update of unknown URI accepted")
	}
	if err := r.Apply(ctx, Op{Kind: OpDelete, URI: "u:missing"}); err == nil {
		t.Fatal("delete of unknown URI accepted")
	}
	if err := r.Apply(ctx, Op{Kind: OpKind(42)}); err == nil {
		t.Fatal("unknown op kind accepted")
	}
}
