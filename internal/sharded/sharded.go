// Package sharded is the key-partition contract of sharded streaming
// resolution: which shard owns a blocking key, which shard owns a
// candidate pair, and exactly how shard i's resolver is configured. The
// one coordinator (package transport) routes operations by it, and every
// shard server opens its resolver with it, whether the shards are other
// processes or hosted in this one.
//
// The partitioning is the paper's web-scale lever (key-partitioned blocking
// distributes exactly the quadratic part of the work) constrained by the
// repo's differential contract: for ANY shard count N >= 1 the deployment's
// matches, comparison counts, blocks and restructured blocks are bit-exact
// with the single-node incremental.Resolver — and therefore with a
// from-scratch batch run — after any operation sequence. Two rules carry
// that guarantee:
//
//   - Partitioned index. Shard i indexes a description only under the keys
//     it owns (KeyOwner(key, N) == i), so each candidate pair co-occurs
//     exactly in the shards owning its shared keys and the per-shard
//     quadratic work shrinks with N.
//
//   - Pair ownership by first shared key. The single-node resolver counts
//     each delta candidate pair once, however many keys it shares; here it
//     belongs to the pair's first (ascending) shared blocking key
//     (FirstSharedKey). Shards reproduce that rule locally through
//     incremental.Config.DeltaFilter, so no pair is evaluated twice, none
//     is missed, and the shard comparison counters sum to the single-node
//     count bit for bit.
//
// See the README's "Sharded streaming" section for the topology.
package sharded

import (
	"fmt"
	"hash/fnv"

	"entityres/internal/blocking"
	"entityres/internal/entity"
	"entityres/internal/incremental"
	"entityres/internal/matching"
	"entityres/internal/metablocking"
)

// Config parameterizes a sharded deployment. Kind, Blocker, Matcher,
// Workers and Meta mean exactly what they mean on incremental.Config
// (Workers sizes each shard's delta-matching pool); validation is
// identical, so a configuration the single-node resolver rejects is
// rejected here with the same error.
type Config struct {
	// Kind is the resolution setting of the stream (default Dirty).
	Kind entity.Kind
	// Blocker derives the blocking keys (required, collection-independent).
	Blocker blocking.StreamableBlocker
	// Matcher is the thresholded match decision (required, corpus-free).
	Matcher *matching.Matcher
	// Workers sizes each shard's delta-matching worker pool; <= 0 means 1.
	Workers int
	// Meta, when set, prunes the comparison frontier through the live
	// weighted blocking graph (stream-safe subset only): the shards defer
	// all matching and the coordinator's replica reconciles globally at
	// read time.
	Meta *metablocking.MetaBlocker
	// Shards is the number of key-space partitions; <= 0 means 1. Results
	// are bit-exact for every value.
	Shards int
	// Durable tunes the journals of a durable deployment — segment size,
	// snapshot cadence, fsync policy. NodeConfig enables group commit on
	// every shard journal (wal.Options.GroupCommit).
	Durable incremental.DurableOptions
}

// Validate rejects exactly what the single-node resolver rejects, with the
// same reasons.
func (cfg Config) Validate() error {
	if _, err := incremental.New(cfg.singleConfig()); err != nil {
		return fmt.Errorf("sharded: %w", err)
	}
	return nil
}

// KeyOwner maps a blocking key to its owning shard: FNV-1a over the key
// bytes, mod the shard count. Deterministic across processes, machines and
// runs — the key→shard directory the coordinator routes operations with is
// exactly this function over the operation's key set, and a rejoining
// shard reconstructs exactly its own key space.
func KeyOwner(key string, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	return int(h.Sum64() % uint64(shards))
}

// shardLens is one shard's view of the blocking-key space: the filtered
// key function its resolver indexes with, the pair-ownership delta filter,
// and a memo of every indexed description's FULL distinct key set. The
// memo is what keeps the ownership rule cheap: every operation's
// description passes through the lens keyer (which refreshes its entry —
// including during WAL replay, so entries are always point-in-time
// correct for the shard's own state), and candidates are then looked up
// instead of re-tokenized. A lens belongs to exactly one
// incremental.Resolver instance, whose internal lock serializes every
// access; a reopened shard builds a fresh lens with its fresh resolver.
//
// The memos are deliberately NOT shared across shards even though steady
// state stores the same full key sets N times: a rejoining shard replays
// its WAL tail against its own historical state, where a candidate's keys
// are those of its attributes AS OF that replay point — reading a shared,
// current memo there would mis-assign pair ownership and silently break
// the bit-exactness contract.
type shardLens struct {
	raw           blocking.KeyFunc
	shards, index int
	memo          map[entity.ID][]string
}

func newShardLens(blocker blocking.StreamableBlocker, shards, index int) *shardLens {
	return &shardLens{
		raw:    blocker.StreamKeyer(),
		shards: shards,
		index:  index,
		memo:   make(map[entity.ID][]string),
	}
}

// refresh derives d's full normalized key set and memoizes it by handle.
func (l *shardLens) refresh(d *entity.Description) []string {
	full := blocking.DistinctKeys(l.raw(d))
	if d.ID >= 0 {
		l.memo[d.ID] = full
	}
	return full
}

// keysOf returns d's memoized full key set, deriving it on a miss (a
// description restored from a snapshot whose keyer has not run yet).
func (l *shardLens) keysOf(d *entity.Description) []string {
	if ks, ok := l.memo[d.ID]; ok {
		return ks
	}
	return l.refresh(d)
}

// keyer is the shard's blocking.KeyFunc: the owned slice of the full key
// set, refreshing the memo as a side effect — indexing always runs it, so
// the memo tracks every indexed description's current keys.
func (l *shardLens) keyer(d *entity.Description) []string {
	var owned []string
	for _, k := range l.refresh(d) {
		if KeyOwner(k, l.shards) == l.index {
			owned = append(owned, k)
		}
	}
	return owned
}

// filter is the shard's incremental.Config.DeltaFilter: a candidate pair
// is claimed only under the pair's first shared blocking key — the key the
// single-node resolver's seen-set dedup counts it under — so every pair is
// evaluated by exactly one shard and the comparison counters sum exactly.
func (l *shardLens) filter(d *entity.Description) func(key string, other *entity.Description) bool {
	dKeys := l.keysOf(d)
	return func(key string, other *entity.Description) bool {
		first, shared := FirstSharedKey(dKeys, l.keysOf(other))
		return shared && first == key
	}
}

// shardBlocker wraps the raw blocker with a lens keyer. Name is forwarded
// unchanged: a shard snapshot fingerprints under the raw blocker, and the
// owned subset is re-derived from (blocker, shards, index) on every open.
type shardBlocker struct {
	blocking.StreamableBlocker
	lens *shardLens
}

// StreamKeyer implements blocking.StreamableBlocker with the owned subset.
func (b *shardBlocker) StreamKeyer() blocking.KeyFunc { return b.lens.keyer }

// FirstSharedKey returns the smallest key present in both ascending
// distinct key slices, and whether one exists. The shard owning that key
// owns the pair: it is where the single-node resolver's seen-set dedup
// counts the pair, so exactly one shard evaluates it and the per-shard
// comparison counters sum to the single-node count bit for bit.
func FirstSharedKey(a, b []string) (string, bool) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return a[i], true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return "", false
}

// singleConfig renders the configuration as the equivalent single-node
// incremental.Config — the validation probe.
func (cfg Config) singleConfig() incremental.Config {
	return incremental.Config{
		Kind:    cfg.Kind,
		Blocker: cfg.Blocker,
		Matcher: cfg.Matcher,
		Workers: cfg.Workers,
		Meta:    cfg.Meta,
	}
}

// NodeConfig renders shard i's incremental.Config — the configuration a
// shard server (transport.ShardServer) opens its resolver with: the raw
// blocker wrapped in a fresh owned-key lens, the first-shared-key delta
// filter, and group-commit durability.
func (cfg Config) NodeConfig(i int) incremental.Config {
	c := cfg.singleConfig()
	lens := newShardLens(cfg.Blocker, max(cfg.Shards, 1), i)
	c.Blocker = &shardBlocker{StreamableBlocker: cfg.Blocker, lens: lens}
	c.DeltaFilter = lens.filter
	c.Durable = cfg.Durable
	c.Durable.GroupCommit = true
	return c
}
