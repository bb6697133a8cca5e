package sharded_test

import (
	"context"
	"testing"

	"entityres/internal/incremental"
	"entityres/internal/metablocking"
)

// TestShardedPerfAggregates: the deployment's Perf aggregates its
// coordinator's counters — the replica journal's checkpoint and reconcile
// work (under meta-blocking the replica is the one that matches) plus the
// fan-out and round-trip tallies — and reading it never reconciles.
func TestShardedPerfAggregates(t *testing.T) {
	cfg := apiConfig(3, &metablocking.MetaBlocker{Weight: metablocking.CBS, Prune: metablocking.WEP})
	cfg.Durable = incremental.DurableOptions{SnapshotEvery: 2, NoSync: true}
	r := openLocal(t, t.TempDir(), cfg)
	// A fresh open checkpoints the empty replica once and nothing else.
	fresh := r.Perf()
	if fresh.FullSnapshots != 1 || fresh.SnapshotSlots != 0 || fresh.Reconciles != 0 || fresh.FanOuts != 0 {
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
	if p.Reconciles != 1 || p.FanOuts != 6 || p.TransportRoundTrips != 6*3 {
		t.Fatalf("6 inserts and a flush on 3 shards counted %+v", p)
	}
	if again := r.Perf(); again != p {
		t.Fatalf("Perf itself changed the counters: %+v then %+v", p, again)
	}
}
