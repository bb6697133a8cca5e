package sharded_test

import (
	"context"
	"reflect"
	"testing"

	"entityres/internal/entity"
	"entityres/internal/sharded"
)

// The key-partition contract: the key→shard directory, the
// pair-ownership rule, the per-shard node configuration, and the
// deployment's match-graph read built on them.

func TestKeyOwnerDirectory(t *testing.T) {
	if got := sharded.KeyOwner("anything", 1); got != 0 {
		t.Fatalf("KeyOwner with one shard = %d", got)
	}
	owners := map[int]bool{}
	for _, key := range []string{"alice", "smith", "berlin", "carol", "jones"} {
		o := sharded.KeyOwner(key, 4)
		if o < 0 || o >= 4 {
			t.Fatalf("KeyOwner(%q, 4) = %d, out of range", key, o)
		}
		if again := sharded.KeyOwner(key, 4); again != o {
			t.Fatalf("KeyOwner(%q) unstable: %d then %d", key, o, again)
		}
		owners[o] = true
	}
	if len(owners) < 2 {
		t.Fatalf("five keys all landed on one shard: %v", owners)
	}
}

func TestFirstSharedKey(t *testing.T) {
	if key, ok := sharded.FirstSharedKey([]string{"a", "b", "d"}, []string{"b", "c", "d"}); !ok || key != "b" {
		t.Fatalf("FirstSharedKey = %q, %v, want b", key, ok)
	}
	if key, ok := sharded.FirstSharedKey([]string{"a"}, []string{"b"}); ok {
		t.Fatalf("disjoint sets share %q", key)
	}
}

func TestNodeConfig(t *testing.T) {
	cfg := apiConfig(3, nil)
	for i := 0; i < 3; i++ {
		nc := cfg.NodeConfig(i)
		if nc.Blocker == nil || nc.Matcher == nil || nc.DeltaFilter == nil {
			t.Fatalf("NodeConfig(%d) incomplete: %+v", i, nc)
		}
	}
}

func TestShardedMatchedWith(t *testing.T) {
	r := openLocal(t, "", apiConfig(3, nil))
	ctx := context.Background()
	a, err := r.Insert(ctx, apiDesc("u:a", "alice smith"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Insert(ctx, apiDesc("u:b", "alice smith"))
	if err != nil {
		t.Fatal(err)
	}
	if got := mustMatchedWith(t, r, a); !reflect.DeepEqual(got, []entity.ID{b}) {
		t.Fatalf("MatchedWith(%d) = %v", a, got)
	}
	if got := mustMatchedWith(t, r, entity.ID(42)); got != nil {
		t.Fatalf("MatchedWith(dead) = %v", got)
	}
}
