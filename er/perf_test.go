package er_test

import (
	"context"
	"testing"

	"entityres/er"
)

// TestPerfReporter: both local deployment forms surface the
// machine-independent work counters through er.PerfReporter.
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
	// The sharded form reconciles at the coordinator, so its shard-summed
	// reconcile and snapshot counters stay zero for an in-memory deployment;
	// what it DOES report is the write-amortization evidence — per-shard
	// journal appends (3 ops × 3 shards) and one fan-out per operation.
	sharded := open(3).(er.PerfReporter).Perf()
	if sharded.Reconciles != 0 || sharded.ReconcileExamined != 0 || sharded.FullSnapshots != 0 {
		t.Fatalf("in-memory sharded deployment reports shard-local reconcile/snapshot work: %+v", sharded)
	}
	if sharded.JournalAppends != 9 || sharded.FanOuts != 3 {
		t.Fatalf("sharded Perf counts appends=%d fanouts=%d for 3 ops on 3 shards", sharded.JournalAppends, sharded.FanOuts)
	}
}
