package transport_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"entityres/internal/blocking"
	"entityres/internal/entity"
	"entityres/internal/incremental"
	"entityres/internal/matching"
	"entityres/internal/metablocking"
	"entityres/internal/sharded"
	"entityres/internal/transport"
)

// The networked chaos property: a shard server hard-stopped mid-stream and
// rejoined — through its own recovered journal, or through a snapshot
// shipped over the wire after its disk is wiped — leaves the deployment
// bit-exact with an uninterrupted single-node run; and a coordinator
// hard-stopped and reopened from its journal resumes with restart-exact
// counters, re-sending the one operation a crash can tear off the shards.

// transportChaosConfig is one networked crash scenario.
type transportChaosConfig struct {
	name   string
	shards int
	seed   int64
	ops    int
	meta   *metablocking.MetaBlocker
	// wipe destroys the victim's directory before rejoin, forcing the
	// snapshot-shipping bootstrap path instead of local journal recovery.
	wipe bool
}

func (cc transportChaosConfig) String() string {
	s := fmt.Sprintf("%s/n%d/seed%d", cc.name, cc.shards, cc.seed)
	if cc.meta != nil {
		s += "/" + cc.meta.Name()
	}
	return s
}

func durableOpts() incremental.DurableOptions {
	return incremental.DurableOptions{SnapshotEvery: 40, SegmentBytes: 4096, NoSync: true}
}

// runShardCrashRejoin drives one scenario: stream to a random boundary,
// hard-stop one shard server, observe refusal, rejoin (recovered or wiped),
// finish the stream, and compare against an uninterrupted single-node run.
func runShardCrashRejoin(t *testing.T, cc transportChaosConfig) {
	matcher := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
	script := generateScript(t, entity.Dirty, cc.seed, cc.ops, cc.mixedMeta())
	rng := rand.New(rand.NewSource(cc.seed * 31337))
	k := 1 + rng.Intn(cc.ops-2)
	victim := rng.Intn(cc.shards)

	cfg := sharded.Config{
		Kind: entity.Dirty, Blocker: &blocking.TokenBlocking{}, Matcher: matcher,
		Workers: 4, Meta: cc.meta, Shards: cc.shards, Durable: durableOpts(),
	}
	base := t.TempDir()
	dirs := make([]string, cc.shards)
	for i := range dirs {
		dirs[i] = filepath.Join(base, fmt.Sprintf("srv-%d", i))
	}
	cl := startCluster(t, cfg, dirs)
	ctx := context.Background()
	co, err := cl.open(ctx, filepath.Join(base, "coord"))
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	single, err := incremental.New(incremental.Config{
		Kind: entity.Dirty, Blocker: &blocking.TokenBlocking{}, Matcher: matcher, Workers: 4, Meta: cc.meta,
	})
	if err != nil {
		t.Fatal(err)
	}
	apply := func(r interface {
		Apply(context.Context, incremental.Op) error
	}, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := r.Apply(ctx, script[i]); err != nil {
				t.Fatalf("op %d (%s %s): %v", i, script[i].Kind, script[i].URI, err)
			}
		}
	}

	apply(co, 0, k)
	apply(single, 0, k)

	// Hard-stop the victim. The next operation is ACCEPTED — journaled on
	// the coordinator and applied on every reachable shard — but reports the
	// victim unavailable, and every operation after that is refused outright
	// until the shard rejoins.
	cl.servers[victim].Abandon()
	var sue *transport.ShardUnavailableError
	if err := co.Apply(ctx, script[k]); !errors.As(err, &sue) {
		t.Fatalf("op %d with shard %d dead: got %v, want ShardUnavailableError", k, victim, err)
	} else if len(sue.Shards) != 1 || sue.Shards[0] != victim {
		t.Fatalf("unavailable set %v, want [%d]", sue.Shards, victim)
	}
	apply(single, k, k+1) // the op counted: mirror it
	if err := co.Apply(ctx, script[k+1]); !errors.As(err, &sue) {
		t.Fatalf("op %d while shard %d is down: got %v, want refusal", k+1, victim, err)
	}
	if ts := co.TransportStats(); len(ts.Down) != 1 || ts.Down[0] != victim {
		t.Fatalf("Down = %v, want [%d]", ts.Down, victim)
	}

	// Rejoin: journal recovery (server reopens its abandoned directory and
	// the coordinator re-sends at most one operation) or snapshot shipping
	// (the directory is wiped first; the coordinator ships full state).
	if cc.wipe {
		if err := os.RemoveAll(cl.dirs[victim]); err != nil {
			t.Fatal(err)
		}
	}
	cl.startShard(victim)
	if err := co.RejoinShard(ctx, victim); err != nil {
		t.Fatalf("rejoining shard %d (wipe=%t): %v", victim, cc.wipe, err)
	}
	if ts := co.TransportStats(); len(ts.Down) != 0 {
		t.Fatalf("Down = %v after rejoin", ts.Down)
	}
	if cc.wipe && cc.meta == nil {
		assertOwnedEdges(t, cl.servers[victim].Resolver(), single, victim, cc.shards)
	}

	// The stream flows again and lands bit-exact.
	apply(co, k+1, cc.ops)
	apply(single, k+1, cc.ops)
	assertCoordinatorEquals(t, co, single, "single-node", cc.meta != nil, cc.ops)
}

// assertOwnedEdges checks that shard victim holds exactly the edges of the
// reference's match graph whose first shared blocking key it owns — the
// slice a shipped image must carry for the shard to retire those edges
// itself later.
func assertOwnedEdges(t *testing.T, shard, ref *incremental.Resolver, victim, shards int) {
	t.Helper()
	keyer := (&blocking.TokenBlocking{}).StreamKeyer()
	keys := map[entity.ID][]string{}
	ref.EachSlot(func(id entity.ID, live bool, d *entity.Description) bool {
		if live {
			keys[id] = blocking.DistinctKeys(keyer(d))
		}
		return true
	})
	var want []string
	for _, e := range ref.MatchEdges() {
		if fs, ok := sharded.FirstSharedKey(keys[e.A], keys[e.B]); ok && sharded.KeyOwner(fs, shards) == victim {
			want = append(want, fmt.Sprintf("%d-%d", e.A, e.B))
		}
	}
	var got []string
	for _, e := range shard.MatchEdges() {
		got = append(got, fmt.Sprintf("%d-%d", e.A, e.B))
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("bootstrapped shard %d holds edges %v, want its owned slice %v", victim, got, want)
	}
}

// mixedMeta picks the op mix: churn exercises the most routing shapes.
func (cc transportChaosConfig) mixedMeta() opMix { return opMixes[1] }

// TestShardCrashRejoin covers the journal-recovery rejoin path.
func TestShardCrashRejoin(t *testing.T) {
	configs := []transportChaosConfig{
		{name: "recover", shards: 3, seed: 301, ops: 120},
		{name: "recover", shards: 5, seed: 302, ops: 120},
		{name: "recover", shards: 3, seed: 303, ops: 120,
			meta: &metablocking.MetaBlocker{Weight: metablocking.CBS, Prune: metablocking.WEP}},
	}
	for _, cc := range configs {
		cc := cc
		t.Run(cc.String(), func(t *testing.T) {
			t.Parallel()
			runShardCrashRejoin(t, cc)
		})
	}
}

// TestShardWipeBootstrap covers snapshot shipping: the victim loses its
// directory entirely and bootstraps from a state blob over the wire.
func TestShardWipeBootstrap(t *testing.T) {
	configs := []transportChaosConfig{
		{name: "wipe", shards: 3, seed: 311, ops: 120, wipe: true},
		{name: "wipe", shards: 5, seed: 312, ops: 120, wipe: true},
		// The victim of seed 321 owns a match edge when it is wiped, so the
		// shipped image's edge slice is checked against a non-empty set.
		{name: "wipe", shards: 3, seed: 321, ops: 120, wipe: true},
		{name: "wipe", shards: 3, seed: 313, ops: 120, wipe: true,
			meta: &metablocking.MetaBlocker{Weight: metablocking.ECBS, Prune: metablocking.WNP}},
	}
	for _, cc := range configs {
		cc := cc
		t.Run(cc.String(), func(t *testing.T) {
			t.Parallel()
			runShardWipeBootstrap(t, cc)
		})
	}
}

func runShardWipeBootstrap(t *testing.T, cc transportChaosConfig) {
	runShardCrashRejoin(t, cc)
}

// TestCoordinatorRestart hard-stops the coordinator mid-stream and reopens
// it from its journal against the still-running shard servers: counters
// must be restart-exact and the remainder of the stream bit-exact.
func TestCoordinatorRestart(t *testing.T) {
	t.Parallel()
	for _, meta := range []*metablocking.MetaBlocker{
		nil,
		{Weight: metablocking.CBS, Prune: metablocking.WEP},
	} {
		meta := meta
		name := "plain"
		if meta != nil {
			name = meta.Name()
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			matcher := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
			const ops, k, shards = 120, 67, 3
			script := generateScript(t, entity.Dirty, 321, ops, opMixes[1])
			cfg := sharded.Config{
				Kind: entity.Dirty, Blocker: &blocking.TokenBlocking{}, Matcher: matcher,
				Workers: 4, Meta: meta, Shards: shards, Durable: durableOpts(),
			}
			base := t.TempDir()
			dirs := make([]string, shards)
			for i := range dirs {
				dirs[i] = filepath.Join(base, fmt.Sprintf("srv-%d", i))
			}
			cl := startCluster(t, cfg, dirs)
			ctx := context.Background()
			cdir := filepath.Join(base, "coord")
			co, err := cl.open(ctx, cdir)
			if err != nil {
				t.Fatal(err)
			}
			single, err := incremental.New(incremental.Config{
				Kind: entity.Dirty, Blocker: &blocking.TokenBlocking{}, Matcher: matcher, Workers: 4, Meta: meta,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < k; i++ {
				if err := co.Apply(ctx, script[i]); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
				if err := single.Apply(ctx, script[i]); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
			// Reads reconcile under meta-blocking, so the single-node mirror
			// follows the same read schedule as the coordinator.
			single.Stats()
			before := mustStats(t, co)
			co.Abandon()

			co2, err := cl.open(ctx, cdir)
			if err != nil {
				t.Fatalf("reopening coordinator: %v", err)
			}
			defer co2.Close()
			if after := mustStats(t, co2); after != before {
				t.Fatalf("restart is not counter-exact:\nbefore %+v\nafter  %+v", before, after)
			}
			if co2.Seq() != uint64(k) {
				t.Fatalf("Seq() = %d after restart, want %d", co2.Seq(), k)
			}
			for i := k; i < ops; i++ {
				if err := co2.Apply(ctx, script[i]); err != nil {
					t.Fatalf("op %d after restart: %v", i, err)
				}
				if err := single.Apply(ctx, script[i]); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
			assertCoordinatorEquals(t, co2, single, "single-node", meta != nil, ops)
		})
	}
}

// TestCoordinatorTornOp covers the one-op tear: the coordinator journals an
// operation, every shard misses it (all servers die first), the
// coordinator itself dies, and the reopened coordinator re-sends that
// operation to every restarted shard during its opening handshake.
func TestCoordinatorTornOp(t *testing.T) {
	t.Parallel()
	matcher := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
	const ops, k, shards = 90, 41, 3
	script := generateScript(t, entity.Dirty, 331, ops, opMixes[0])
	cfg := sharded.Config{
		Kind: entity.Dirty, Blocker: &blocking.TokenBlocking{}, Matcher: matcher,
		Workers: 4, Shards: shards, Durable: durableOpts(),
	}
	base := t.TempDir()
	dirs := make([]string, shards)
	for i := range dirs {
		dirs[i] = filepath.Join(base, fmt.Sprintf("srv-%d", i))
	}
	cl := startCluster(t, cfg, dirs)
	ctx := context.Background()
	cdir := filepath.Join(base, "coord")
	co, err := cl.open(ctx, cdir)
	if err != nil {
		t.Fatal(err)
	}
	single, err := incremental.New(incremental.Config{
		Kind: entity.Dirty, Blocker: &blocking.TokenBlocking{}, Matcher: matcher, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if err := co.Apply(ctx, script[i]); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if err := single.Apply(ctx, script[i]); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	// Kill every shard, then apply one op: it is journaled on the
	// coordinator but reaches nobody — the tear.
	for i := 0; i < shards; i++ {
		cl.servers[i].Abandon()
	}
	var sue *transport.ShardUnavailableError
	if err := co.Apply(ctx, script[k]); !errors.As(err, &sue) {
		t.Fatalf("torn op: got %v, want ShardUnavailableError", err)
	} else if len(sue.Shards) != shards {
		t.Fatalf("unavailable set %v, want all %d shards", sue.Shards, shards)
	}
	if err := single.Apply(ctx, script[k]); err != nil {
		t.Fatal(err)
	}
	co.Abandon()

	// Everything restarts. The reopened coordinator finds every shard one
	// operation behind and re-sends it idempotently.
	for i := 0; i < shards; i++ {
		cl.startShard(i)
	}
	co2, err := cl.open(ctx, cdir)
	if err != nil {
		t.Fatalf("reopening coordinator after torn op: %v", err)
	}
	defer co2.Close()
	if co2.Seq() != uint64(k+1) {
		t.Fatalf("Seq() = %d after restart, want %d", co2.Seq(), k+1)
	}
	for i := k + 1; i < ops; i++ {
		if err := co2.Apply(ctx, script[i]); err != nil {
			t.Fatalf("op %d after restart: %v", i, err)
		}
		if err := single.Apply(ctx, script[i]); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	assertCoordinatorEquals(t, co2, single, "single-node", false, ops)
}
