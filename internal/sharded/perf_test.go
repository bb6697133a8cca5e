package sharded_test

import (
	"context"
	"testing"

	"entityres/internal/incremental"
	"entityres/internal/metablocking"
	"entityres/internal/sharded"
)

// TestShardedPerfAggregates: the coordinator's Perf sums every shard's
// counters, so checkpoint work done anywhere in a durable deployment is
// visible in one place — and reading it never reconciles. (Reconcile
// counters stay shard-local zero here: with Meta set the coordinator
// reconciles globally, the shards only maintain statistics.)
func TestShardedPerfAggregates(t *testing.T) {
	cfg := apiConfig(3, &metablocking.MetaBlocker{Weight: metablocking.CBS, Prune: metablocking.WEP})
	cfg.Durable = incremental.DurableOptions{SnapshotEvery: 2, NoSync: true}
	r, err := sharded.Open(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// A fresh open checkpoints each empty shard once and nothing else.
	fresh := r.Perf()
	if fresh.FullSnapshots != 3 || fresh.SnapshotSlots != 0 || fresh.Reconciles != 0 {
		t.Fatalf("fresh deployment reports unexpected work: %+v", fresh)
	}
	ctx := context.Background()
	for _, d := range []struct{ uri, name string }{
		{"u:a", "alice smith"}, {"u:b", "alice smith"}, {"u:c", "alice smith"},
		{"u:d", "carol jones"}, {"u:e", "carol jones"}, {"u:f", "carol jones"},
	} {
		if _, err := r.Insert(ctx, apiDesc(d.uri, d.name)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	p := r.Perf()
	if p.FullSnapshots <= fresh.FullSnapshots || p.SnapshotSlots <= 0 {
		t.Fatalf("durable deployment reports no checkpoint work: %+v", p)
	}
	if again := r.Perf(); again != p {
		t.Fatalf("Perf itself changed the counters: %+v then %+v", p, again)
	}
}
