package er

import (
	"context"
	"fmt"

	"entityres/internal/incremental"
	"entityres/internal/sharded"
	"entityres/internal/transport"
)

// This file is the resolver API: one Open call returning one Resolver
// interface, with durability, sharding and networking selected by Config
// instead of by constructor.

// Config selects and parameterizes a resolver deployment for Open.
//
// The zero-value axes compose: leave everything optional unset for an
// in-memory single-node resolver; set Dir for durability; set Shards for
// in-process sharding; set Addrs to drive remote shard servers over the
// wire. Durability and sharding combine freely; Addrs subsumes Shards.
// Both sharded forms run the same coordinator: with Shards and no Addrs
// it hosts the shard servers itself and reaches them over in-memory pipes.
type Config struct {
	// Kind is the collection kind (Dirty or CleanClean).
	Kind Kind
	// Blocker derives blocking keys per description (required).
	Blocker StreamableBlocker
	// Matcher decides candidate pairs (required).
	Matcher *Matcher
	// Workers bounds delta-matching concurrency (0 = sequential).
	Workers int
	// Meta enables live meta-blocking (WEP/WNP over CBS/ECBS/JS).
	Meta *MetaBlocker

	// Dir makes the deployment durable: a single-node resolver journals
	// under it; an in-process sharded deployment keeps its coordinator
	// journal in Dir/coordinator and shard i's in Dir/shard-%03d; the
	// networked coordinator keeps its own journal there. Empty means fully
	// in-memory.
	Dir string
	// Durable tunes the write-ahead log when Dir is set.
	Durable StreamingDurable

	// Shards > 1 partitions the blocking-key space across shard servers
	// hosted in this process.
	Shards int

	// Addrs selects the networked deployment: one shard server address per
	// shard (see NewShardServer / the erctl shard command). Shards, when
	// set, must agree with len(Addrs).
	Addrs []string
	// Transport tunes the shard connections (timeouts, retry attempts),
	// in-process pipes included.
	Transport TransportOptions

	// Sources are input files — N-Triples, CSV or JSON-lines — preloaded
	// into the deployment before Open returns, in order, each tagged with
	// its source index. On a durable deployment that already applied
	// operations, already-loaded leading records are skipped rather than
	// re-inserted (the sources are the operation-stream prefix).
	Sources []Source
}

// sharded renders the config in the internal deployment form of the
// coordinator and its shard servers.
func (cfg Config) sharded() sharded.Config {
	return sharded.Config{
		Kind: cfg.Kind, Blocker: cfg.Blocker, Matcher: cfg.Matcher,
		Workers: cfg.Workers, Meta: cfg.Meta, Shards: cfg.Shards,
		Durable: cfg.Durable,
	}
}

// Query selects a description — by URI, or by handle when URI is empty —
// and what to resolve about it.
type Query struct {
	// URI addresses the description by its identifier.
	URI string
	// ID addresses it by resolver handle when URI is empty.
	ID ID
	// Cluster additionally materializes the full entity cluster.
	Cluster bool
}

// Result answers a Query.
type Result struct {
	// ID is the resolver handle of the selected description.
	ID ID
	// Description is a copy of its current state.
	Description *Description
	// SameAs lists the handles currently matched to it, ascending.
	SameAs []ID
	// Cluster lists its full entity cluster (itself included) when the
	// query asked for it; nil otherwise.
	Cluster []ID
}

// ErrNotFound reports a Query that selected no live description.
// ErrBroken marks a resolver whose journal has diverged from its in-memory
// state: a journaled read-side reconcile could not be recorded or
// retracted, or an admitted operation failed mid-apply. Every subsequent mutation AND every
// reconciling read (Stats, Flush, Query under meta-blocking) fails with an
// error wrapping it — match with errors.Is(err, er.ErrBroken). The journal
// itself is still the durable truth: reopening the directory recovers the
// last consistent state.
var ErrBroken = incremental.ErrBroken

type ErrNotFound struct {
	URI string
	ID  ID
}

func (e *ErrNotFound) Error() string {
	if e.URI != "" {
		return fmt.Sprintf("er: no live description with URI %q", e.URI)
	}
	return fmt.Sprintf("er: no live description with handle %d", e.ID)
}

// Resolver is the v2 entity-resolution surface: a live store of entity
// descriptions that maintains blocks, matches and clusters under
// insert/update/delete traffic. All deployment forms returned by Open —
// single-node, durable, sharded, networked — satisfy it with bit-identical
// observable behavior.
//
// Every mutation is a batch: Insert, Update and Delete are ApplyBatch with
// one operation, journaled and counted exactly as the single operation it
// is (one journal append, one fan-out, one round trip per shard). On every
// form the context gates admission only: a context that is already done
// fails the call with its error before anything is journaled or applied,
// and an admitted operation runs to completion even if the context is
// cancelled while it does.
type Resolver interface {
	// Insert adds a new description and returns its handle.
	Insert(ctx context.Context, d *Description) (ID, error)
	// Update replaces a live description's attributes.
	Update(ctx context.Context, id ID, attrs []Attribute) error
	// Delete removes a live description.
	Delete(ctx context.Context, id ID) error
	// ApplyBatch accepts a batch of URI-addressed operations as one
	// sequential unit: validated up front against the state the batch
	// itself builds (a batch may insert a description and then update or
	// delete it), rejected whole on any invalid record, and — on the
	// durable forms — journaled as ONE append that replays atomically
	// after a crash. The resulting state is bit-identical to applying the
	// operations one by one; what changes is the cost: one lock
	// acquisition, one journal append, one shard fan-out and (networked)
	// one wire round trip per shard for the whole batch.
	ApplyBatch(ctx context.Context, ops []StreamOp) error
	// Query resolves one description: current state, match partners and
	// optionally its full cluster. Returns *ErrNotFound when nothing live
	// answers the selection.
	Query(ctx context.Context, q Query) (Result, error)
	// Stats reports operation counters and current blocking/matching sizes,
	// reconciling deferred meta-blocking work first. A resolver whose
	// journal has diverged fails with an error wrapping ErrBroken.
	Stats() (StreamingStats, error)
	// Flush settles any deferred (meta-blocking) work.
	Flush(ctx context.Context) error
	// Close releases the deployment (seals journals, drops connections).
	Close() error
}

// ShardRejoiner is implemented by the sharded Resolver forms: after a shard
// server restarts, RejoinShard reconnects it and closes whatever gap its
// absence left (journal catch-up or snapshot shipping over the wire).
type ShardRejoiner interface {
	RejoinShard(ctx context.Context, shard int) error
	// TransportStats reports routed-delivery counters and down shards.
	TransportStats() TransportStats
}

// DurableReporter is implemented by every deployment form: Recovery reports
// what each journal this process opened restored — one entry for
// single-node; the coordinator's replica journal first, then one per
// in-process shard, for the sharded forms — and Abandon hard-stops without
// sealing the journals, simulating a crash for tests and benchmarks.
type DurableReporter interface {
	Recovery() []StreamingRecovery
	Abandon()
}

// PerfReporter is implemented by every deployment form: Perf reports the
// cumulative machine-independent work counters without reconciling or
// otherwise mutating state. The sharded forms report the coordinator's
// counters — its replica journal plus fan-out and round-trip tallies — not
// the shard servers' journals, whether the shards run in this process or
// in others.
type PerfReporter interface {
	Perf() StreamingPerf
}

// Networked transport surface.
type (
	// TransportOptions tunes shard connections (Config.Transport).
	TransportOptions = transport.ClientOptions
	// TransportStats are routed-delivery counters (ShardRejoiner).
	TransportStats = transport.TransportStats
	// ShardServer serves one shard's resolver over the wire protocol.
	ShardServer = transport.ShardServer
	// ShardUnavailableError reports shards unreachable during a mutation;
	// the operation itself was accepted and completes on rejoin.
	ShardUnavailableError = transport.ShardUnavailableError
)

// NewShardServer opens shard index of the deployment described by cfg —
// durable under dir, in-memory when dir is empty — ready to Serve the wire
// protocol a networked Open drives. cfg must carry the same Kind, Blocker,
// Matcher, Meta and Shards on every shard and every coordinator of one
// deployment.
func NewShardServer(dir string, cfg Config, index int) (*ShardServer, error) {
	scfg := cfg.sharded()
	if scfg.Shards == 0 {
		scfg.Shards = len(cfg.Addrs)
	}
	return transport.NewShardServer(dir, scfg, index)
}

// Open validates cfg and connects the selected deployment:
//
//   - no Addrs, Shards <= 1: a single-node streaming resolver, durable
//     under Dir when set;
//   - no Addrs, Shards > 1: the coordinator driving Shards shard servers
//     hosted in this process over in-memory pipes, durable under Dir when
//     set;
//   - Addrs set: the same coordinator, one shard server per address, with
//     Dir as the coordinator's own journal directory.
//
// The returned Resolver is bit-exact across these forms for the same
// operation stream; pick by operational need, not by semantics.
func Open(ctx context.Context, cfg Config) (Resolver, error) {
	var r Resolver
	switch {
	case len(cfg.Addrs) > 0 || cfg.Shards > 1:
		var co *transport.Coordinator
		var err error
		if len(cfg.Addrs) > 0 {
			co, err = transport.OpenCoordinator(ctx, cfg.Dir, cfg.sharded(), cfg.Addrs, cfg.Transport)
		} else {
			co, err = transport.OpenLocal(ctx, cfg.Dir, cfg.sharded(), cfg.Transport)
		}
		if err != nil {
			return nil, err
		}
		r = &networkedResolver{adapter{co}, co}
	default:
		icfg := incremental.Config{
			Kind: cfg.Kind, Blocker: cfg.Blocker, Matcher: cfg.Matcher,
			Workers: cfg.Workers, Meta: cfg.Meta, Durable: cfg.Durable,
		}
		var sr *StreamingResolver
		var err error
		if cfg.Dir != "" {
			sr, err = incremental.OpenResolver(cfg.Dir, icfg)
		} else {
			sr, err = incremental.New(icfg)
		}
		if err != nil {
			return nil, err
		}
		r = &singleAdapter{adapter{sr}, sr}
	}
	if len(cfg.Sources) > 0 {
		if err := preloadSources(ctx, r, cfg.Sources); err != nil {
			r.Close()
			return nil, err
		}
	}
	return r, nil
}

// backend is what every deployment form offers the adapters: its one
// batch apply path and the shared read surface. The reconciling reads
// (MatchedWith, ClusterOf, Stats) return the reconcile's error — a poisoned
// journal surfaces as ErrBroken instead of a panic.
type backend interface {
	incremental.Batcher
	Lookup(uri string) (ID, bool)
	Get(id ID) (*Description, bool)
	MatchedWith(id ID) ([]ID, error)
	ClusterOf(id ID) ([]ID, error)
	Stats() (StreamingStats, error)
	Flush(ctx context.Context) error
	Close() error
	Perf() StreamingPerf
}

// runQuery answers q against any backend.
func runQuery(b backend, q Query) (Result, error) {
	var id ID
	if q.URI != "" {
		var ok bool
		if id, ok = b.Lookup(q.URI); !ok {
			return Result{}, &ErrNotFound{URI: q.URI}
		}
	} else {
		id = q.ID
	}
	d, ok := b.Get(id)
	if !ok {
		return Result{}, &ErrNotFound{URI: q.URI, ID: id}
	}
	sameAs, err := b.MatchedWith(id)
	if err != nil {
		return Result{}, err
	}
	res := Result{ID: id, Description: d, SameAs: sameAs}
	if q.Cluster {
		if res.Cluster, err = b.ClusterOf(id); err != nil {
			return Result{}, err
		}
		if res.Cluster == nil {
			res.Cluster = []ID{id} // matched to nothing: a singleton
		}
	}
	return res, nil
}

// adapter implements Resolver over any deployment form. Every mutation is a
// batch through the backend's ApplyBatch — a single Insert, Update or
// Delete is a batch of one — so operations are converted in one place and
// the context gates admission only, on every form.
type adapter struct{ b backend }

func (a adapter) Insert(ctx context.Context, d *Description) (ID, error) {
	return incremental.InsertOne(ctx, a.b, d)
}
func (a adapter) Update(ctx context.Context, id ID, attrs []Attribute) error {
	return incremental.UpdateOne(ctx, a.b, id, attrs)
}
func (a adapter) Delete(ctx context.Context, id ID) error {
	return incremental.DeleteOne(ctx, a.b, id)
}
func (a adapter) ApplyBatch(ctx context.Context, ops []StreamOp) error {
	return a.b.ApplyBatch(ctx, incremental.OpRecords(ops))
}
func (a adapter) Query(ctx context.Context, q Query) (Result, error) { return runQuery(a.b, q) }
func (a adapter) Stats() (StreamingStats, error)                     { return a.b.Stats() }
func (a adapter) Flush(ctx context.Context) error                    { return a.b.Flush(ctx) }
func (a adapter) Close() error                                       { return a.b.Close() }
func (a adapter) Perf() StreamingPerf                                { return a.b.Perf() }

// singleAdapter adapts the single-node streaming resolver.
type singleAdapter struct {
	adapter
	sr *StreamingResolver
}

func (a *singleAdapter) Recovery() []StreamingRecovery { return []StreamingRecovery{a.sr.Recovery()} }
func (a *singleAdapter) Abandon()                      { a.sr.Abandon() }

// networkedResolver adapts the coordinator of both sharded forms; it
// additionally implements ShardRejoiner.
type networkedResolver struct {
	adapter
	co *transport.Coordinator
}

func (a *networkedResolver) RejoinShard(ctx context.Context, shard int) error {
	return a.co.RejoinShard(ctx, shard)
}
func (a *networkedResolver) TransportStats() TransportStats { return a.co.TransportStats() }
func (a *networkedResolver) Recovery() []StreamingRecovery  { return a.co.Recovery() }
func (a *networkedResolver) Abandon()                       { a.co.Abandon() }

// compile-time conformance
var (
	_ Resolver        = (*singleAdapter)(nil)
	_ Resolver        = (*networkedResolver)(nil)
	_ ShardRejoiner   = (*networkedResolver)(nil)
	_ DurableReporter = (*singleAdapter)(nil)
	_ DurableReporter = (*networkedResolver)(nil)
	_ PerfReporter    = (*singleAdapter)(nil)
	_ PerfReporter    = (*networkedResolver)(nil)
	_ backend         = (*incremental.Resolver)(nil)
	_ backend         = (*transport.Coordinator)(nil)
)
