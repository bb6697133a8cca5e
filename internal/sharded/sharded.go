// Package sharded distributes the streaming resolver across the blocking-key
// space: a coordinator partitions keys by hash over N shard resolvers — each
// a full incremental.Resolver with its own blocking.BlockIndex, optional
// metablocking.WeightedGraph and optional per-shard WAL directory — fans
// every Insert, Update and Delete out to the shards in parallel, and merges
// the shard-local match edges into a coordinator-owned graph.Dynamic so
// every read (matches, clusters, stats, blocks, restructured blocks) is
// globally consistent.
//
// The partitioning is the paper's web-scale lever (key-partitioned blocking
// distributes exactly the quadratic part of the work) constrained by the
// repo's differential contract: for ANY shard count N >= 1 the sharded
// resolver's matches, comparison counts, blocks and restructured blocks are
// bit-exact with the single-node incremental.Resolver — and therefore with
// a from-scratch batch run — after any operation sequence. Three mechanisms
// carry that guarantee:
//
//   - Replicated stream, partitioned index. Every shard receives every
//     operation (keeping the handle space identical everywhere), but shard i
//     indexes a description only under the keys it owns
//     (hash(key) % N == i), so each candidate pair co-occurs exactly in the
//     shards owning its shared keys and the per-shard quadratic work shrinks
//     with N.
//
//   - Pair ownership by first shared key. The single-node resolver counts
//     each delta candidate pair once, however many keys it shares; here it
//     belongs to the pair's first (ascending) shared blocking key. Shards
//     reproduce that rule locally through
//     incremental.Config.DeltaFilter: a pair is evaluated only by the shard
//     owning its first shared key, so no pair is evaluated twice, none is
//     missed, and the shard comparison counters sum to the single-node
//     count bit for bit.
//
//   - Coordinator-merged reads. Match edges merge idempotently into the
//     coordinator's graph.Dynamic as operations complete; with live
//     meta-blocking the shards instead maintain per-key-space weighted
//     blocking graphs whose statistics are strictly additive (every block
//     lives wholly in one shard), so the coordinator merges them at read
//     time and runs the exact batch pruning + evaluation of the single-node
//     deferred reconcile (see meta.go).
//
// Durability is per shard: Open journals every shard's operations to its
// own WAL directory (shard-%03d), and a shard that is hard-stopped
// mid-stream (StopShard — the in-process kill -9) rejoins by restoring its
// own snapshot plus WAL tail (RejoinShard, riding
// incremental.OpenResolver's bounded recovery) without any global replay.
// The shard logs run in group-commit mode (wal.Options.GroupCommit) so
// concurrent appenders share fsyncs; note that today's coordinator
// serializes operations, so each shard log sees one appender at a time and
// batching only materializes once ops pipeline into shards concurrently
// (the multi-process-transport follow-on) — with a single appender the
// mode is sync-for-sync identical to per-op fsync. See the README's
// "Sharded streaming" section for the topology.
package sharded

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"

	"entityres/internal/blocking"
	"entityres/internal/entity"
	"entityres/internal/graph"
	"entityres/internal/incremental"
	"entityres/internal/matching"
	"entityres/internal/metablocking"
)

// Config parameterizes a sharded streaming resolver. Kind, Blocker,
// Matcher, Workers and Meta mean exactly what they mean on
// incremental.Config (Workers sizes each shard's delta-matching pool);
// validation is identical, so a configuration the single-node resolver
// rejects is rejected here with the same error.
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
	// weighted blocking graph (stream-safe subset only): the shards
	// maintain per-key-space statistics and the coordinator reconciles
	// globally at read time.
	Meta *metablocking.MetaBlocker
	// Shards is the number of key-space partitions (resolvers); <= 0 means
	// 1. Results are bit-exact for every value.
	Shards int
	// Durable tunes the per-shard WALs of a resolver opened with Open —
	// segment size, snapshot cadence, fsync policy. Open always enables
	// group commit on the shard logs (wal.Options.GroupCommit): identical
	// durability and sync count under today's one-appender-per-log
	// coordinator, automatic fsync batching once operations pipeline into
	// shards concurrently. New ignores the whole struct.
	Durable incremental.DurableOptions
}

// shard is one key-space partition: its resolver, its key lens and
// lifecycle state.
type shard struct {
	res  *incremental.Resolver
	lens *shardLens
	// down marks a hard-stopped shard: mutating operations fail until
	// RejoinShard restores it from its own snapshot + WAL tail.
	down bool
}

// Resolver is the sharded streaming resolver: the coordinator plus its
// shard resolvers. All methods are safe for concurrent use; operations are
// serialized by the coordinator and fanned out to the shards in parallel.
type Resolver struct {
	cfg Config
	// dir is the per-shard WAL root ("" for in-memory resolvers).
	dir string

	// mu is a reader/writer lock mirroring the single-node resolver's
	// discipline: mutations hold it exclusively, reads share it (reads that
	// must reconcile deferred meta-blocking work first go through
	// lockShared). Read-side shard aggregation fans across the shards
	// concurrently under the shared lock — see fanRead.
	mu     sync.RWMutex
	shards []*shard
	// broken, once set, fails every further mutating operation: the
	// resolver was closed, or a partial shard failure left the shards
	// disagreeing and the coordinator refuses to widen the divergence.
	broken error

	// The coordinator's replica of the stream's control plane: every slot
	// in handle order (dead slots as tombstones, mirroring the shards),
	// liveness, and the URI index. Shards hold the same slots; the replica
	// serves reads without touching a shard.
	coll      *entity.Collection
	live      []bool
	liveCount int
	byURI     map[string]entity.ID

	// dyn is the coordinator-owned global match graph: the idempotent union
	// of the shard-local match edges (non-meta), or the reconcile-maintained
	// {kept ∧ similar} edge set (meta; see meta.go).
	dyn *graph.Dynamic

	// Meta-blocking coordinator state (unused without cfg.Meta): the cached
	// pairwise matcher decisions, the result and weighted graph of the
	// latest reconcile, the deferred-work flag and the reconcile comparison
	// counter — the exact counterparts of the single-node resolver's
	// deferred-reconcile state, operating on the shard-merged statistics
	// through the shared incremental.ReconcileKept core.
	simCache        *incremental.DecisionCache
	lastKept        []graph.Edge
	merged          *metablocking.WeightedGraph
	metaDirty       bool
	metaComparisons int64
	// coordJ is the coordinator journal making the decision cache and
	// metaComparisons restart-exact (durable meta-blocking deployments
	// only; see coordjournal.go); coordOps counts the operations it has
	// journaled.
	coordJ   *coordJournal
	coordOps int64

	// stats holds the operation counters; comparison and graph-shaped
	// fields are derived at read time.
	stats incremental.Stats

	// perf holds the coordinator's own work counters — shard fan-outs and
	// coordinator-journal appends, work no shard sees; Perf sums them with
	// the per-shard counters.
	perf incremental.PerfCounters

	// recovery records what Open restored, one entry per shard;
	// rolledForward counts the shards Open rolled forward to complete an
	// operation a whole-process crash left on only some shard journals.
	recovery      []incremental.RecoveryInfo
	rolledForward int
}

// fanoutCtx is the context shard applies run under: never cancelled, so an
// admitted batch completes on every shard or fails on every shard for the
// same deterministic reason — a caller's timeout firing mid-fan-out can
// never leave the replicas split (see fanout).
var fanoutCtx = context.Background()

// keyOwner maps a blocking key to its owning shard: FNV-1a over the key
// bytes, mod the shard count. Deterministic across processes and runs, so
// a rejoining shard reconstructs exactly its own key space.
func keyOwner(key string, shards int) int {
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
// access; RejoinShard builds a fresh lens with the fresh resolver.
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

// evict drops a dead handle's memo entry; the coordinator calls it on
// delete so the memo tracks (roughly) the live set rather than the
// stream's whole history.
func (l *shardLens) evict(id entity.ID) { delete(l.memo, id) }

// keyer is the shard's blocking.KeyFunc: the owned slice of the full key
// set, refreshing the memo as a side effect — indexing always runs it, so
// the memo tracks every indexed description's current keys.
func (l *shardLens) keyer(d *entity.Description) []string {
	var owned []string
	for _, k := range l.refresh(d) {
		if keyOwner(k, l.shards) == l.index {
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
		first, shared := firstShared(dKeys, l.keysOf(other))
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

// firstShared returns the smallest string present in both ascending
// slices, and whether one exists.
func firstShared(a, b []string) (string, bool) {
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
// incremental.Config — the validation probe and the reference the
// differential suite compares against.
func (cfg Config) singleConfig() incremental.Config {
	return incremental.Config{
		Kind:    cfg.Kind,
		Blocker: cfg.Blocker,
		Matcher: cfg.Matcher,
		Workers: cfg.Workers,
		Meta:    cfg.Meta,
	}
}

// shardConfig renders shard i's incremental.Config and the lens backing
// it — one fresh lens per resolver instance, returned so the coordinator
// can evict deleted handles from its memo.
func (cfg Config) shardConfig(i int) (incremental.Config, *shardLens) {
	c := cfg.singleConfig()
	lens := newShardLens(cfg.Blocker, cfg.normShards(), i)
	c.Blocker = &shardBlocker{StreamableBlocker: cfg.Blocker, lens: lens}
	c.DeltaFilter = lens.filter
	c.Durable = cfg.Durable
	c.Durable.GroupCommit = true
	return c, lens
}

// normShards returns the effective shard count.
func (cfg Config) normShards() int {
	if cfg.Shards <= 0 {
		return 1
	}
	return cfg.Shards
}

// New validates the configuration and returns an empty in-memory sharded
// resolver. Validation matches the single-node resolver exactly.
func New(cfg Config) (*Resolver, error) {
	r, err := newCoordinator(cfg)
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.normShards(); i++ {
		scfg, lens := cfg.shardConfig(i)
		sres, err := incremental.New(scfg)
		if err != nil {
			return nil, err
		}
		r.shards = append(r.shards, &shard{res: sres, lens: lens})
	}
	return r, nil
}

// newCoordinator validates cfg (by probing the equivalent single-node
// configuration, so the two cannot drift on what is valid) and builds the
// empty coordinator.
func newCoordinator(cfg Config) (*Resolver, error) {
	if _, err := incremental.New(cfg.singleConfig()); err != nil {
		return nil, fmt.Errorf("sharded: %w", err)
	}
	r := &Resolver{
		cfg:   cfg,
		coll:  entity.NewCollection(cfg.Kind),
		byURI: make(map[string]entity.ID),
		dyn:   graph.NewDynamic(),
	}
	if cfg.Meta != nil {
		r.simCache = incremental.NewDecisionCache()
	}
	return r, nil
}

// Kind returns the resolution setting of the stream.
func (r *Resolver) Kind() entity.Kind { return r.cfg.Kind }

// Shards returns the number of key-space partitions.
func (r *Resolver) Shards() int { return r.cfg.normShards() }

// ready reports whether every shard can accept the next operation.
// Callers hold r.mu.
func (r *Resolver) ready() error {
	if r.broken != nil {
		return r.broken
	}
	for i, sh := range r.shards {
		if sh.down {
			return fmt.Errorf("sharded: shard %d is stopped; rejoin it before streaming further operations", i)
		}
	}
	return nil
}

// fanout runs fn against every shard in parallel and reconciles the
// outcome: all-success applies; all-failure means every shard refused the
// batch before journaling it (shards validate up front, and an admitted
// batch applies to completion), so nothing changed anywhere; a partial
// failure leaves the shards disagreeing — the coordinator then refuses
// every further mutation rather than widen the divergence (for durable
// resolvers the journals would disagree too, so the partial-failure path is
// reserved for genuine faults like a dead shard disk). That is why batches
// are admitted, not interrupted: the caller's context is checked before the
// fan-out and deliberately NOT propagated into it — a cancellation observed
// by some shards and not others is exactly the split this design must
// never produce. Callers hold r.mu.
func (r *Resolver) fanout(fn func(sr *incremental.Resolver) error) error {
	r.perf.FanOuts++
	errs := make([]error, len(r.shards))
	var wg sync.WaitGroup
	for i := range r.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(r.shards[i].res)
		}(i)
	}
	wg.Wait()
	failed := 0
	var first error
	for _, e := range errs {
		if e != nil {
			failed++
			if first == nil {
				first = e
			}
		}
	}
	switch {
	case failed == 0:
		return nil
	case failed == len(r.shards):
		return first
	default:
		r.broken = fmt.Errorf("sharded: resolver disabled after a partial shard failure (%d of %d shards failed; first error: %v)", failed, len(r.shards), first)
		return r.broken
	}
}

// lockShared acquires the coordinator lock in shared mode with the
// reconcile-then-share discipline of the single-node resolver: on return
// the caller holds the read lock over clean state and must release with
// r.mu.RUnlock. A dirty graph is reconciled once under the write lock — a
// read stampede queues there, the first holder pays the one global
// reconcile, everyone behind it proceeds under the shared lock.
func (r *Resolver) lockShared(ctx context.Context) error {
	for {
		r.mu.RLock()
		if r.cfg.Meta == nil || !r.metaDirty {
			return nil
		}
		r.mu.RUnlock()
		r.mu.Lock()
		err := r.reconcile(ctx)
		r.mu.Unlock()
		if err != nil {
			return err
		}
	}
}

// fanRead runs fn against every shard concurrently and returns the results
// in shard order — the read-side counterpart of fanout. Each shard
// resolver serializes internally on its own lock, so concurrent
// coordinator readers contend per shard instead of on one global mutex.
// Callers hold r.mu in either mode.
func fanRead[T any](shards []*shard, fn func(sr *incremental.Resolver) T) []T {
	out := make([]T, len(shards))
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = fn(shards[i].res)
		}(i)
	}
	wg.Wait()
	return out
}

// Insert adds a new description to every shard and resolves it against the
// shard-partitioned delta frontier, returning the handle — identical on the
// coordinator and every shard. Like every mutation it is a batch of one,
// and the context gates admission only.
func (r *Resolver) Insert(ctx context.Context, d *entity.Description) (entity.ID, error) {
	return incremental.InsertOne(ctx, r, d)
}

// Update replaces the attributes of the live description with the given
// handle on every shard and re-resolves its shard-partitioned frontier.
func (r *Resolver) Update(ctx context.Context, id entity.ID, attrs []entity.Attribute) error {
	return incremental.UpdateOne(ctx, r, id, attrs)
}

// Delete removes the live description with the given handle from every
// shard; its match edges disappear and its cluster is split.
func (r *Resolver) Delete(id entity.ID) error {
	return incremental.DeleteOne(context.Background(), r, id)
}

// Apply executes one URI-addressed operation — the same op-log exchange
// form the single-node resolver accepts, so erctl watch can replay a log
// through either.
func (r *Resolver) Apply(ctx context.Context, op incremental.Op) error {
	return incremental.ApplyOne(ctx, r, op)
}

// isLive reports whether id is a live slot. Callers hold r.mu.
func (r *Resolver) isLive(id entity.ID) bool {
	return id >= 0 && id < len(r.live) && r.live[id]
}

// Lookup returns the handle of the live description with the given URI.
func (r *Resolver) Lookup(uri string) (entity.ID, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	id, ok := r.byURI[uri]
	return id, ok
}

// Get returns a copy of the live description with the given handle.
func (r *Resolver) Get(id entity.ID) (*entity.Description, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if !r.isLive(id) {
		return nil, false
	}
	return r.coll.Get(id).Clone(), true
}

// ApplyBatch is the coordinator's one apply path: it applies a batch of
// insert, update and delete records as one amortized operation — one
// admission check, ONE fan-out to the shards (each shard journals the whole
// batch as a single append through its own ApplyBatch — one fsync per shard
// instead of N), and one coordinator-journal record carrying every touched
// handle. Insert, Update, Delete and Apply are batches of one; the resolved
// state is bit-identical to applying a batch's records one at a time.
//
// Validation mirrors the single-node batch path exactly (shared
// incremental.PlanBatch core): records are checked up front against the
// sequential state the batch builds over the coordinator's replica, so a
// bad batch fails here — before any shard sees it — and an admitted batch
// cannot fail mid-apply on a healthy shard. Updates and deletes address
// their target by handle, or by URI when ID is negative; resolved handles
// are written back into recs. Like every mutation, the context gates
// admission only. An empty batch is a no-op.
func (r *Resolver) ApplyBatch(ctx context.Context, recs []incremental.Record) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.ready(); err != nil {
		return err
	}
	if len(recs) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	err := incremental.PlanBatch(r.cfg.Kind, r.coll.Len(),
		func(uri string) (entity.ID, bool) { id, ok := r.byURI[uri]; return id, ok },
		r.isLive,
		func(id entity.ID) string { return r.coll.Get(id).URI },
		recs)
	if err != nil {
		return fmt.Errorf("sharded: %w", err)
	}
	// One fan-out for the whole batch. Each shard re-plans against its own
	// (identical) replica and writes the resolved handles back, so every
	// shard gets a private copy of the records; the handles must agree with
	// the coordinator's plan or the replicas have drifted. Shard-side
	// ApplyBatch journals atomically — a crash leaves a shard with the
	// whole batch or none of it, which is exactly the tear repairFanoutTear
	// knows how to roll forward.
	if err := r.fanout(func(sr *incremental.Resolver) error {
		cp := make([]incremental.Record, len(recs))
		copy(cp, recs)
		if serr := sr.ApplyBatch(fanoutCtx, cp); serr != nil {
			return serr
		}
		for i := range cp {
			if cp[i].ID != recs[i].ID {
				return fmt.Errorf("sharded: shard resolved batch record %d to handle %d, coordinator planned %d", i, cp[i].ID, recs[i].ID)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	// Fold the batch into the replica in record order.
	ids := make([]entity.ID, len(recs))
	for i := range recs {
		rec := &recs[i]
		ids[i] = rec.ID
		switch rec.Kind {
		case incremental.OpInsert:
			cp := &entity.Description{ID: -1, URI: rec.URI, Source: rec.Source, Attrs: append([]entity.Attribute(nil), rec.Attrs...)}
			r.coll.MustAdd(cp)
			r.live = append(r.live, true)
			if cp.URI != "" {
				r.byURI[cp.URI] = rec.ID
			}
			r.liveCount++
			r.stats.Inserts++
		case incremental.OpUpdate:
			r.coll.Get(rec.ID).Attrs = append([]entity.Attribute(nil), rec.Attrs...)
			r.stats.Updates++
			r.dyn.RemoveNode(rec.ID)
		case incremental.OpDelete:
			if d := r.coll.Get(rec.ID); d.URI != "" {
				delete(r.byURI, d.URI)
			}
			r.live[rec.ID] = false
			r.liveCount--
			r.stats.Deletes++
			r.dyn.RemoveNode(rec.ID)
			for _, sh := range r.shards {
				sh.lens.evict(rec.ID)
			}
		}
	}
	// One coordinator-journal append for the whole batch (meta-blocking
	// durability; no-op otherwise).
	r.noteBatch(ids)
	if r.cfg.Meta != nil {
		for _, id := range ids {
			r.simCache.Invalidate(id)
		}
		r.metaDirty = true
		return nil
	}
	// Patch the coordinator's match graph to the shards' post-batch truth.
	// Every touched handle's stale edges were removed above (updates and
	// deletes drop the node); re-adding each inserted or updated handle's
	// FINAL shard neighbors reproduces the one-at-a-time result: eager
	// matching only moves edges incident to the operated handle, so edges
	// between untouched handles were never stale, and a handle the batch
	// later deleted simply has no final neighbors to re-add.
	for i := range recs {
		if recs[i].Kind == incremental.OpDelete {
			continue
		}
		id := recs[i].ID
		for _, sh := range r.shards {
			for _, nb := range sh.res.MatchNeighbors(id) {
				r.dyn.AddEdge(id, nb, 1)
			}
		}
	}
	return nil
}

// Stats returns a globally consistent snapshot of the resolver's counters,
// reconciling deferred meta-blocking work first. Comparisons is the sum of
// the shards' matcher invocations (plus the coordinator's reconcile
// evaluations under meta-blocking) and equals the single-node resolver's
// count bit for bit.
func (r *Resolver) Stats() (incremental.Stats, error) {
	if err := r.lockShared(context.Background()); err != nil {
		return incremental.Stats{}, err
	}
	defer r.mu.RUnlock()
	st := r.stats
	st.Live = r.liveCount
	st.Matches = r.dyn.NumEdges()
	st.Clusters = r.dyn.NumClusters()
	st.Comparisons = r.comparisonsLocked()
	if r.cfg.Meta != nil {
		if r.merged != nil {
			st.CandidatePairs = r.merged.NumPairs()
		}
		st.KeptPairs = len(r.lastKept)
	}
	return st, nil
}

// comparisonsLocked sums the matcher invocations across the system.
// Callers hold r.mu.
func (r *Resolver) comparisonsLocked() int64 {
	n := r.metaComparisons
	for _, c := range fanRead(r.shards, func(sr *incremental.Resolver) int64 {
		return sr.Counters().Comparisons
	}) {
		n += c
	}
	return n
}

// Matches returns the current global match pairs over internal handles,
// reconciling deferred meta-blocking work first.
func (r *Resolver) Matches() (*entity.Matches, error) {
	if err := r.lockShared(context.Background()); err != nil {
		return nil, err
	}
	defer r.mu.RUnlock()
	return r.dyn.Matches(), nil
}

// Clusters returns the current non-singleton entity clusters over internal
// handles, in the deterministic order of entity.UnionFind.Clusters.
func (r *Resolver) Clusters() ([][]entity.ID, error) {
	if err := r.lockShared(context.Background()); err != nil {
		return nil, err
	}
	defer r.mu.RUnlock()
	return r.dyn.Clusters(), nil
}

// ClusterOf returns id's global entity cluster, ascending, or nil when id
// matches nothing, reconciling deferred meta-blocking work first.
func (r *Resolver) ClusterOf(id entity.ID) ([]entity.ID, error) {
	if err := r.lockShared(context.Background()); err != nil {
		return nil, err
	}
	defer r.mu.RUnlock()
	return r.dyn.ClusterOf(id), nil
}

// Blocks materializes the global block collection: the union of the
// shards' owned-key blocks, keys ascending — identical to what the
// configured blocker would build over the live descriptions, and to the
// single-node resolver's Blocks.
func (r *Resolver) Blocks() *blocking.Blocks {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var all []*blocking.Block
	for _, bs := range fanRead(r.shards, func(sr *incremental.Resolver) []*blocking.Block {
		return sr.Blocks().All()
	}) {
		all = append(all, bs...)
	}
	// Keys are disjoint across shards (each key has one owner), so sorting
	// by key reproduces the single BlockIndex's ascending enumeration.
	sortBlocksByKey(all)
	out := blocking.NewBlocks(r.cfg.Kind)
	for _, b := range all {
		out.Add(b)
	}
	return out
}

// Snapshot materializes the global state as a fresh batch-shaped result —
// dense live descriptions plus the match set remapped into that ID space —
// with the same contract as the single-node resolver's Snapshot: a batch
// pipeline over the returned collection reproduces the returned matches.
func (r *Resolver) Snapshot() (*entity.Collection, *entity.Matches, error) {
	if err := r.lockShared(context.Background()); err != nil {
		return nil, nil, err
	}
	defer r.mu.RUnlock()
	out := entity.NewCollection(r.cfg.Kind)
	remap := make(map[entity.ID]entity.ID, r.liveCount)
	for _, d := range r.coll.All() {
		if !r.live[d.ID] {
			continue
		}
		remap[d.ID] = out.MustAdd(d.Clone())
	}
	matches := entity.NewMatches()
	r.dyn.Graph().EachEdge(func(e graph.Edge) bool {
		matches.Add(remap[e.A], remap[e.B])
		return true
	})
	return out, matches, nil
}
