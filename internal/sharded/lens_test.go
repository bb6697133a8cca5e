package sharded

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"testing"

	"entityres/internal/blocking"
	"entityres/internal/entity"
	"entityres/internal/incremental"
	"entityres/internal/matching"
)

// TestShardLensMemoTracksLiveSet churns a shard node — rounds of
// insert-all, update-half, delete-all — and checks after every phase that
// the lens memo holds exactly the live handles, each under its current
// full key set: a retired handle's entry goes with its index membership.
func TestShardLensMemoTracksLiveSet(t *testing.T) {
	cfg := Config{
		Kind: entity.Dirty, Blocker: &blocking.TokenBlocking{},
		Matcher: &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5},
		Shards:  2,
	}
	nc := cfg.NodeConfig(0)
	lens := nc.Blocker.(*shardBlocker).lens
	r, err := incremental.New(nc)
	if err != nil {
		t.Fatal(err)
	}
	raw := cfg.Blocker.StreamKeyer()
	check := func(phase string) {
		t.Helper()
		var live []entity.ID
		for id := range entity.ID(r.Slots()) {
			d, ok := r.Get(id)
			if !ok {
				continue
			}
			live = append(live, id)
			if got, want := lens.memo[id], blocking.DistinctKeys(raw(d)); !slices.Equal(got, want) {
				t.Fatalf("%s: memo[%d] = %v, want %v", phase, id, got, want)
			}
		}
		if got := slices.Sorted(maps.Keys(lens.memo)); !slices.Equal(got, live) {
			t.Fatalf("%s: memo holds %d handles %v, live are %d %v", phase, len(got), got, len(live), live)
		}
	}
	ctx := context.Background()
	const n = 40
	for round := range 3 {
		ids := make([]entity.ID, n)
		for i := range n {
			d := entity.NewDescription(fmt.Sprintf("u:%d", i)).Add("name", fmt.Sprintf("alice%d smith%d berlin", i%7, i%5))
			if ids[i], err = r.Insert(ctx, d); err != nil {
				t.Fatal(err)
			}
		}
		check(fmt.Sprintf("round %d inserts", round))
		for i := 0; i < n; i += 2 {
			attrs := []entity.Attribute{{Name: "name", Value: fmt.Sprintf("carol%d jones%d", i%3, round)}}
			if err := r.Update(ctx, ids[i], attrs); err != nil {
				t.Fatal(err)
			}
		}
		check(fmt.Sprintf("round %d updates", round))
		for _, id := range ids {
			if err := r.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		check(fmt.Sprintf("round %d deletes", round))
		if len(lens.memo) != 0 {
			t.Fatalf("round %d: %d memo entries survive deleting every record", round, len(lens.memo))
		}
	}
}
