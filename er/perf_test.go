package er_test

import (
	"context"
	"testing"

	"entityres/er"
)

// TestPerfReporter: the single-node and in-process sharded forms surface
// their machine-independent work counters through er.PerfReporter.
func TestPerfReporter(t *testing.T) {
	ctx := context.Background()
	open := func(shards int) er.Resolver {
		t.Helper()
		r, err := er.Open(ctx, er.Config{
			Kind:    er.Dirty,
			Blocker: &er.TokenBlocking{},
			Matcher: &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: 0.5},
			Meta:    &er.MetaBlocker{Weight: er.CBS, Prune: er.WEP},
			Shards:  shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		for _, uri := range []string{"u:a", "u:b", "u:c"} {
			d := &er.Description{URI: uri, Attrs: []er.Attribute{{Name: "name", Value: "alice smith"}}}
			if _, err := r.Insert(ctx, d); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		return r
	}
	single := open(1).(er.PerfReporter).Perf()
	if single.Reconciles <= 0 || single.ReconcileExamined <= 0 {
		t.Fatalf("single-node Perf reports no reconcile work: %+v", single)
	}
	// 3 inserts plus the journaled reconcile the Flush ran.
	if single.JournalAppends != 4 {
		t.Fatalf("single-node Perf counts %d journal appends for 3 inserts + 1 reconcile", single.JournalAppends)
	}
	// The sharded form reports its coordinator's counters: the replica
	// reconciles and journals exactly as the single-node resolver does (it
	// is the one that matches under meta-blocking), and each operation is
	// one fan-out and one round trip per shard. The shard servers' own
	// journals are not counted.
	sharded := open(3).(er.PerfReporter).Perf()
	if sharded.Reconciles != single.Reconciles || sharded.ReconcileExamined != single.ReconcileExamined ||
		sharded.ReconcileEvaluated != single.ReconcileEvaluated || sharded.JournalAppends != single.JournalAppends {
		t.Fatalf("sharded coordinator Perf %+v diverges from single-node %+v on the replica's work", sharded, single)
	}
	if sharded.FanOuts != 3 || sharded.TransportRoundTrips != 9 {
		t.Fatalf("sharded Perf counts fan-outs=%d round trips=%d for 3 ops on 3 shards", sharded.FanOuts, sharded.TransportRoundTrips)
	}
}
