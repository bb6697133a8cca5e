package er_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"entityres/er"
)

// The v2 API conformance suite: er.Open must hand back interchangeable
// Resolvers for every deployment form, with identical Query answers and
// Stats for the same operation stream.

func v2Config() er.Config {
	return er.Config{
		Kind:    er.Dirty,
		Blocker: &er.TokenBlocking{},
		Matcher: &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: 0.5},
	}
}

// startShardServers boots n in-memory shard servers for cfg and returns
// their addresses.
func startShardServers(t *testing.T, cfg er.Config, n int) []string {
	t.Helper()
	cfg.Shards = n
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		srv, err := er.NewShardServer("", cfg, i)
		if err != nil {
			t.Fatal(err)
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(lis)
		t.Cleanup(func() { srv.Close() })
		addrs[i] = lis.Addr().String()
	}
	return addrs
}

// openAll opens every deployment form of the same logical configuration.
func openAll(t *testing.T, ctx context.Context) map[string]er.Resolver {
	t.Helper()
	forms := map[string]er.Resolver{}

	single, err := er.Open(ctx, v2Config())
	if err != nil {
		t.Fatal(err)
	}
	forms["single"] = single

	durable := v2Config()
	durable.Dir = t.TempDir()
	durable.Durable = er.StreamingDurable{NoSync: true, SnapshotEvery: 8}
	dr, err := er.Open(ctx, durable)
	if err != nil {
		t.Fatal(err)
	}
	forms["durable"] = dr

	shardedCfg := v2Config()
	shardedCfg.Shards = 3
	sh, err := er.Open(ctx, shardedCfg)
	if err != nil {
		t.Fatal(err)
	}
	forms["sharded"] = sh

	netCfg := v2Config()
	netCfg.Addrs = startShardServers(t, v2Config(), 2)
	netCfg.Dir = t.TempDir()
	nr, err := er.Open(ctx, netCfg)
	if err != nil {
		t.Fatal(err)
	}
	forms["networked"] = nr

	t.Cleanup(func() {
		for _, r := range forms {
			r.Close()
		}
	})
	return forms
}

func TestOpenConformance(t *testing.T) {
	ctx := context.Background()
	forms := openAll(t, ctx)

	attrs := func(name, city string) []er.Attribute {
		return []er.Attribute{{Name: "name", Value: name}, {Name: "city", Value: city}}
	}
	// A small churny script: duplicates, an update that creates a match, a
	// delete that breaks one.
	type rec struct {
		uri  string
		a    []er.Attribute
		ids  map[string]er.ID
		gone bool
	}
	script := []rec{
		{uri: "u:a", a: attrs("alice smith", "berlin")},
		{uri: "u:b", a: attrs("alice smith", "berlin de")},
		{uri: "u:c", a: attrs("carol jones", "paris")},
		{uri: "u:d", a: attrs("dave brown", "oslo")},
	}
	for i := range script {
		script[i].ids = map[string]er.ID{}
		for name, r := range forms {
			id, err := r.Insert(ctx, &er.Description{URI: script[i].uri, Attrs: script[i].a})
			if err != nil {
				t.Fatalf("%s: insert %s: %v", name, script[i].uri, err)
			}
			script[i].ids[name] = id
		}
	}
	// Handles are assigned identically across forms.
	for _, rec := range script {
		for name, id := range rec.ids {
			if id != rec.ids["single"] {
				t.Fatalf("%s assigned %s handle %d, single %d", name, rec.uri, id, rec.ids["single"])
			}
		}
	}
	// Update u:c into the alice cluster; delete u:b out of it.
	for name, r := range forms {
		if err := r.Update(ctx, script[2].ids[name], attrs("alice smith", "berlin")); err != nil {
			t.Fatalf("%s: update: %v", name, err)
		}
		if err := r.Delete(ctx, script[1].ids[name]); err != nil {
			t.Fatalf("%s: delete: %v", name, err)
		}
		if err := r.Flush(ctx); err != nil {
			t.Fatalf("%s: flush: %v", name, err)
		}
	}
	script[1].gone = true

	// Every form answers every query identically.
	want := map[string]er.Result{}
	for _, rec := range script {
		for name, r := range forms {
			res, err := r.Query(ctx, er.Query{URI: rec.uri, Cluster: true})
			if rec.gone {
				var nf *er.ErrNotFound
				if !errors.As(err, &nf) {
					t.Fatalf("%s: query deleted %s: %v, want ErrNotFound", name, rec.uri, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: query %s: %v", name, rec.uri, err)
			}
			if w, ok := want[rec.uri]; ok {
				if !reflect.DeepEqual(res, w) {
					t.Fatalf("%s answered %s with %+v, earlier form %+v", name, rec.uri, res, w)
				}
			} else {
				want[rec.uri] = res
			}
		}
	}
	// a and (updated) c match: SameAs and Cluster agree on that.
	ra := want["u:a"]
	if len(ra.SameAs) != 1 || ra.SameAs[0] != script[2].ids["single"] {
		t.Fatalf("u:a SameAs = %v, want [%d]", ra.SameAs, script[2].ids["single"])
	}
	if len(ra.Cluster) != 2 {
		t.Fatalf("u:a Cluster = %v, want both alices", ra.Cluster)
	}
	rd := want["u:d"]
	if len(rd.SameAs) != 0 || !reflect.DeepEqual(rd.Cluster, []er.ID{rd.ID}) {
		t.Fatalf("u:d = %+v, want unmatched singleton", rd)
	}

	// Stats agree bit-exactly.
	base := mustStats(t, forms["single"])
	for name, r := range forms {
		if st := mustStats(t, r); st != base {
			t.Fatalf("%s stats %+v diverge from single %+v", name, st, base)
		}
	}

	// Each of the 6 calls above is a batch of one and costs exactly what a
	// single operation always did: one append per journal it reaches (one
	// per shard on the sharded form, the replica's on the networked one),
	// one fan-out, and one wire round trip per shard.
	for _, row := range []struct {
		form                        string
		appends, fanOuts, roundTrip int64
	}{
		{"single", 6, 0, 0},
		{"durable", 6, 0, 0},
		{"sharded", 6 * 3, 6, 0},
		{"networked", 6, 6, 6 * 2},
	} {
		p := forms[row.form].(er.PerfReporter).Perf()
		if p.JournalAppends != row.appends || p.FanOuts != row.fanOuts || p.TransportRoundTrips != row.roundTrip {
			t.Fatalf("%s: 6 single ops cost appends=%d fan-outs=%d round trips=%d, want %d/%d/%d",
				row.form, p.JournalAppends, p.FanOuts, p.TransportRoundTrips, row.appends, row.fanOuts, row.roundTrip)
		}
	}

	// The networked form exposes its transport surface through the optional
	// interface, and routing was in effect.
	rj, ok := forms["networked"].(er.ShardRejoiner)
	if !ok {
		t.Fatal("networked resolver does not implement ShardRejoiner")
	}
	ts := rj.TransportStats()
	if ts.FullOps+ts.AdvanceOps != 6*2 || ts.AdvanceOps == 0 {
		t.Fatalf("transport stats %+v: want 6 ops routed across 2 shards with some advances", ts)
	}
}

// cancelAfterAdmission is a context that is live for its first Err check —
// the admission gate — and cancelled ever after: a caller that gives up
// while its admitted operation runs.
type cancelAfterAdmission struct {
	context.Context
	checked atomic.Bool
}

func (c *cancelAfterAdmission) Err() error {
	if c.checked.Swap(true) {
		return context.Canceled
	}
	return nil
}

// TestContextGatesAdmission pins the context contract on every er.Open
// form: a done context fails Insert, Update, Delete and ApplyBatch with its
// own error before anything is journaled or applied, and an operation
// admitted under a live context runs to completion even if the context is
// cancelled while it does.
func TestContextGatesAdmission(t *testing.T) {
	ctx := context.Background()
	forms := openAll(t, ctx)
	done, cancel := context.WithCancel(ctx)
	cancel()
	alice := []er.Attribute{{Name: "name", Value: "alice smith"}}
	var want er.StreamingStats
	for _, name := range []string{"single", "durable", "sharded", "networked"} {
		r := forms[name]
		id, err := r.Insert(ctx, &er.Description{URI: "u:a", Attrs: alice})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		before, perf := mustStats(t, r), r.(er.PerfReporter).Perf()
		for op, call := range map[string]func(context.Context) error{
			"insert": func(c context.Context) error {
				_, err := r.Insert(c, &er.Description{URI: "u:b", Attrs: alice})
				return err
			},
			"update": func(c context.Context) error { return r.Update(c, id, alice) },
			"delete": func(c context.Context) error { return r.Delete(c, id) },
			"batch": func(c context.Context) error {
				return r.ApplyBatch(c, []er.StreamOp{{Kind: er.StreamInsert, URI: "u:b", Attrs: alice}})
			},
		} {
			if err := call(done); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: %s under a done context = %v, want context.Canceled", name, op, err)
			}
		}
		if st := mustStats(t, r); st != before {
			t.Fatalf("%s: refused ops moved stats %+v -> %+v", name, before, st)
		}
		if p := r.(er.PerfReporter).Perf(); p.JournalAppends != perf.JournalAppends || p.FanOuts != perf.FanOuts || p.TransportRoundTrips != perf.TransportRoundTrips {
			t.Fatalf("%s: refused ops reached a journal or shard: %+v -> %+v", name, perf, p)
		}
		// Admitted, then cancelled: both the single and the batch path run
		// to completion, and the resolver stays usable.
		if _, err := r.Insert(&cancelAfterAdmission{Context: ctx}, &er.Description{URI: "u:b", Attrs: alice}); err != nil {
			t.Fatalf("%s: insert cancelled after admission: %v", name, err)
		}
		if err := r.ApplyBatch(&cancelAfterAdmission{Context: ctx}, []er.StreamOp{{Kind: er.StreamUpdate, URI: "u:a", Attrs: alice}}); err != nil {
			t.Fatalf("%s: batch cancelled after admission: %v", name, err)
		}
		if res, err := r.Query(ctx, er.Query{URI: "u:b"}); err != nil || len(res.SameAs) != 1 || res.SameAs[0] != id {
			t.Fatalf("%s: u:b after an admitted insert = %+v (%v), want matched to u:a", name, res, err)
		}
		st := mustStats(t, r)
		if name == "single" {
			want = st
		} else if st != want {
			t.Fatalf("%s stats %+v diverge from single %+v", name, st, want)
		}
	}
}

func TestQueryValidation(t *testing.T) {
	ctx := context.Background()
	r, err := er.Open(ctx, v2Config())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	id, err := r.Insert(ctx, &er.Description{URI: "u:x", Attrs: []er.Attribute{{Name: "n", Value: "x"}}})
	if err != nil {
		t.Fatal(err)
	}

	// ErrNotFound carries the failing selector.
	var nf *er.ErrNotFound
	if _, err := r.Query(ctx, er.Query{URI: "u:nope"}); !errors.As(err, &nf) || nf.URI != "u:nope" {
		t.Fatalf("query by unknown URI: %v", err)
	}
	if _, err := r.Query(ctx, er.Query{ID: id + 100}); !errors.As(err, &nf) || nf.ID != id+100 {
		t.Fatalf("query by unknown handle: %v", err)
	}
	// Without Cluster the result leaves it nil.
	res, err := r.Query(ctx, er.Query{URI: "u:x"})
	if err != nil || res.Cluster != nil {
		t.Fatalf("non-cluster query answered %+v (%v)", res, err)
	}
	// Descriptions are copies: mutating the result must not reach the store.
	res.Description.Attrs[0].Value = "tampered"
	again, err := r.Query(ctx, er.Query{URI: "u:x"})
	if err != nil || again.Description.Attrs[0].Value != "x" {
		t.Fatalf("query result aliases live state: %+v (%v)", again, err)
	}
}

// TestOpenValidation: configuration errors surface at Open, not later.
func TestOpenValidation(t *testing.T) {
	ctx := context.Background()
	bad := v2Config()
	bad.Blocker = nil
	if _, err := er.Open(ctx, bad); err == nil {
		t.Error("Open accepted a config with no blocker")
	}
	mismatch := v2Config()
	mismatch.Shards = 3
	mismatch.Addrs = []string{"127.0.0.1:1", "127.0.0.1:2"}
	if _, err := er.Open(ctx, mismatch); err == nil {
		t.Error("Open accepted Shards=3 with 2 addresses")
	}
}

// TestDeprecatedAliases: the v1 constructors still work during the
// deprecation window.
func TestDeprecatedAliases(t *testing.T) {
	ctx := context.Background()
	r, err := er.NewStreamingResolver(er.StreamingConfig{
		Kind:    er.Dirty,
		Blocker: &er.TokenBlocking{},
		Matcher: &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Insert(ctx, &er.Description{URI: "u:v1", Attrs: []er.Attribute{{Name: "n", Value: "v"}}}); err != nil {
		t.Fatal(err)
	}
	sh, err := er.NewShardedResolver(er.ShardedConfig{
		Kind: er.Dirty, Blocker: &er.TokenBlocking{},
		Matcher: &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: 0.5}, Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServeConformance drives the networked query path end to end at the
// er level: Open over shard servers answers the same queries as single.
func TestNetworkedQueryAfterRejoin(t *testing.T) {
	ctx := context.Background()
	cfg := v2Config()
	cfg.Addrs = startShardServers(t, v2Config(), 2)
	cfg.Dir = t.TempDir()
	r, err := er.Open(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 6; i++ {
		uri := fmt.Sprintf("u:%d", i)
		if _, err := r.Insert(ctx, &er.Description{URI: uri, Attrs: []er.Attribute{{Name: "name", Value: fmt.Sprintf("person %d", i%3)}}}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := r.Query(ctx, er.Query{URI: "u:0", Cluster: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SameAs) != 1 {
		t.Fatalf("u:0 SameAs = %v, want its one duplicate", res.SameAs)
	}
	// Rejoining a healthy shard is a no-op handshake; queries keep working.
	if err := r.(er.ShardRejoiner).RejoinShard(ctx, 1); err != nil {
		t.Fatalf("RejoinShard of a healthy shard: %v", err)
	}
	if _, err := r.Query(ctx, er.Query{URI: "u:0"}); err != nil {
		t.Fatalf("query after rejoin: %v", err)
	}
}

// TestCapabilityInterfaces exercises the optional capability surfaces of
// the v2 adapters: DurableReporter on the local forms, ShardRejoiner's
// rejoin of a healthy shard, and the not-found error rendering.
func TestCapabilityInterfaces(t *testing.T) {
	ctx := context.Background()
	cfg := v2Config()
	cfg.Dir = t.TempDir()
	cfg.Durable = er.StreamingDurable{NoSync: true}
	single, err := er.Open(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec := single.(er.DurableReporter).Recovery(); len(rec) != 1 {
		t.Fatalf("single Recovery = %v", rec)
	}
	single.(er.DurableReporter).Abandon()

	shCfg := v2Config()
	shCfg.Dir = t.TempDir()
	shCfg.Durable = er.StreamingDurable{NoSync: true}
	shCfg.Shards = 2
	sh, err := er.Open(ctx, shCfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec := sh.(er.DurableReporter).Recovery(); len(rec) != 2 {
		t.Fatalf("sharded Recovery = %v", rec)
	}
	sh.(er.DurableReporter).Abandon()

	if msg := (&er.ErrNotFound{URI: "u:x"}).Error(); !strings.Contains(msg, "u:x") {
		t.Fatalf("ErrNotFound by URI = %q", msg)
	}
	if msg := (&er.ErrNotFound{ID: 7}).Error(); !strings.Contains(msg, "7") {
		t.Fatalf("ErrNotFound by handle = %q", msg)
	}
}
