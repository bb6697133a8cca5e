// Live meta-blocking: the resolver's deferred weighting-and-pruning path.
//
// With cfg.Meta set, every insert, update and delete flows its membership
// delta into an incrementally maintained metablocking.WeightedGraph (wired
// as a blocking.MembershipObserver of the block index) and defers all
// matching. Reads — Matches, Clusters, Stats, Snapshot, Flush,
// RestructuredBlocks — reconcile: sync the delta pruner over the changes
// since the last read, evaluate the re-fated pairs that have no cached
// matcher decision, and patch the match graph so it equals {kept ∧
// similar}.
//
// Deferral is what makes the batch contract exact. Edge weights (and WEP's
// global mean, WNP's neighborhood means) shift with every arrival, so a
// pair's pruning fate is only settled at read time; an eager per-operation
// decision would compare pairs a batch run over the final collection never
// compares. Deferred, a static replay followed by one read evaluates
// exactly the finally-kept pairs — matches AND comparison counts equal the
// batch pipeline bit for bit.
//
// The reconcile is delta-proportional. A metablocking.DeltaPruner rides
// the weighted graph's change feed and re-derives fates for only the edges
// the changes could have flipped (see metablocking/delta.go for the
// candidate-band argument); because its thresholds are exact sums, the
// fates are bit-identical to a full PruneGraph pass, and the match-graph
// patch below only touches the re-fated pairs. A pair outside the
// candidate set provably kept its fate AND its cached decision (every
// cache invalidation flows through retire, whose membership removal dirties
// the pair), so leaving its match edge alone is exactly what the old
// full-rescan reconcile did.
package incremental

import (
	"context"
	"fmt"

	"entityres/internal/blocking"
	"entityres/internal/entity"
	"entityres/internal/graph"
	"entityres/internal/metablocking"
)

// PerfCounters are the resolver's machine-independent work counters: pure
// functions of the operation stream and configuration, unlike wall-clock
// timings, so committed benchmark baselines can gate on them across
// machines. All counters are cumulative.
type PerfCounters struct {
	// Reconciles counts effective (non-no-op) reconcile passes.
	Reconciles int64
	// ReconcileExamined counts pruning-fate derivations across all
	// reconciles — the delta-proportional work measure (a full rescan per
	// read would grow it by the whole graph every time).
	ReconcileExamined int64
	// ReconcileEvaluated counts matcher invocations spent inside
	// reconciles (cache-missing re-fated pairs).
	ReconcileEvaluated int64
	// FullSnapshots counts checkpoint compactions; SnapshotSlots the
	// cumulative collection slots they serialized — the compaction-cost
	// measure.
	FullSnapshots, SnapshotSlots int64
	// SnapshotPairs is always zero: checkpoints no longer store the
	// weighted blocking graph's pairs. The field stays only because the
	// erbench baselines still gate it as snapshot_pairs.
	SnapshotPairs int64
	// DeltaSnapshots is always zero: every checkpoint writes a full
	// snapshot. The field stays only because the benchmark ledger still
	// reports it as wal.delta_snapshots.
	DeltaSnapshots int64
	// JournalAppends counts journal append operations (Journal.Record
	// calls, the no-op journal's included — the counter is a pure function
	// of the operation stream, not of durability). A batch of N operations
	// costs one append where N single operations (batches of one) cost N:
	// the write-path amortization measure.
	JournalAppends int64
	// FanOuts counts coordinator shard fan-outs. Shard-local resolvers
	// never increment it; the sharded and networked coordinators add their
	// own count when aggregating (one fan-out per batch; a single
	// operation is a batch of one).
	FanOuts int64
	// TransportRoundTrips counts wire request/ack round trips issued to
	// shard servers. Only the networked coordinator increments it: a batch
	// frame carries N routed ops per round trip where N single operations
	// pay N round trips per shard.
	TransportRoundTrips int64
	// ReadLocks counts shared (read) lock acquisitions across the read
	// surface and SharedReads the read operations served entirely under the
	// shared lock — without paying a reconcile themselves. Their ratio is
	// the concurrent-read-scaling evidence: a fleet of readers on a mostly
	// clean graph shows SharedReads tracking ReadLocks, with the occasional
	// post-write reconcile paid once regardless of reader count. Sequential
	// use keeps both deterministic; under concurrency they depend on
	// scheduling, so benchmark baselines must not gate on them.
	ReadLocks, SharedReads int64
}

// Add folds q's counts into p — the aggregation the sharded and networked
// coordinators use to sum per-shard counters with their own.
func (p *PerfCounters) Add(q PerfCounters) {
	p.Reconciles += q.Reconciles
	p.ReconcileExamined += q.ReconcileExamined
	p.ReconcileEvaluated += q.ReconcileEvaluated
	p.FullSnapshots += q.FullSnapshots
	p.SnapshotSlots += q.SnapshotSlots
	p.SnapshotPairs += q.SnapshotPairs
	p.JournalAppends += q.JournalAppends
	p.FanOuts += q.FanOuts
	p.TransportRoundTrips += q.TransportRoundTrips
	p.ReadLocks += q.ReadLocks
	p.SharedReads += q.SharedReads
}

// Perf returns the resolver's cumulative work counters. It never
// reconciles or otherwise mutates state.
func (r *Resolver) Perf() PerfCounters {
	// A plain (uncounted) shared lock: Perf observes the counters and must
	// not perturb them — two back-to-back calls on a quiet resolver agree.
	r.mu.RLock()
	defer r.mu.RUnlock()
	p := r.perf
	p.ReadLocks = r.readLocks.Load()
	p.SharedReads = r.sharedReads.Load()
	return p
}

// Flush reconciles any deferred meta-blocking work under the caller's
// context: syncs the delta pruner and resolves the re-fated,
// not-yet-evaluated pairs through the matcher pool. It is a no-op without
// a Meta configuration or when nothing changed since the last reconcile.
// On cancellation the match state is left as it was before the call (the
// evaluated decisions are not folded in) and the deferred work remains
// pending; retrying restores consistency. A resolver whose journal has
// diverged fails with an error wrapping ErrBroken.
func (r *Resolver) Flush(ctx context.Context) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.reconcile(ctx)
}

// RestructuredBlocks reconciles and renders the pruned blocking graph the
// way batch meta-blocking emits it: one two-description block per kept
// edge, ordered by descending weight. It is the streaming counterpart of
// MetaBlocker.Restructure over the live descriptions; without a Meta
// configuration it returns nil.
func (r *Resolver) RestructuredBlocks() (*blocking.Blocks, error) {
	// weighted is assigned once in New, before the resolver escapes — safe
	// to check unlocked, and it keeps the no-meta answer error-free the way
	// it always was.
	if r.weighted == nil {
		return nil, nil
	}
	if err := r.lockShared(context.Background()); err != nil {
		return nil, err
	}
	defer r.mu.RUnlock()
	kept := make([]graph.Edge, len(r.lastKept))
	copy(kept, r.lastKept)
	return metablocking.EmitKept(r.coll, r.cfg.Kind, kept), nil
}

// reconcile settles the deferred meta-blocking state: syncs the delta
// pruner over the graph changes since the last read, evaluates the
// re-fated pairs that miss the decision cache, and patches the match graph
// so it equals {kept ∧ similar}. Callers hold r.mu.
func (r *Resolver) reconcile(ctx context.Context) error {
	// A diverged journal poisons reads as well as writes: the in-memory
	// answer may still be derivable, but silently serving it while the log
	// cannot reproduce it hides the divergence until the next crash.
	// Graceful closure is NOT poison — a closed resolver still serves
	// consistent reads below, it just stops journaling reconciles (nothing
	// can mutate after close, and recovery re-derives reconcile state
	// deterministically).
	if r.broken != nil && r.broken != errClosed {
		return r.broken
	}
	if r.weighted == nil || !r.metaDirty {
		return nil
	}
	// An effective reconcile mutates state — decisions are evaluated,
	// cached and counted — so a durable resolver journals it like any
	// operation and recovery replays it at the same point of the stream,
	// keeping the comparison counters and decision cache bit-exact across a
	// crash.
	journaled := false
	if r.broken == nil {
		if err := r.journal.Record(Record{Kind: OpReconcile}); err != nil {
			r.broken = fmt.Errorf("%w: journaling reconcile: %v", ErrBroken, err)
			return r.broken
		}
		journaled = true
		r.perf.JournalAppends++
	}
	// The pruner is created at first reconcile, seeded with the committed
	// kept baseline (lastKept — consistent with the match graph and the
	// decision cache at every quiescent point, including right after a
	// snapshot restore or a shard bootstrap): its first sync then re-derives
	// every live pair against that baseline, exactly like the old full
	// reconcile, and later syncs are delta-proportional.
	if r.pruner == nil {
		r.pruner = metablocking.NewDeltaPruner(r.weighted, *r.cfg.Meta)
		r.pruner.Seed(r.lastKept)
	}
	refates := r.pruner.Sync()
	n, err := r.applyRefates(ctx, refates)
	if err != nil {
		// The candidate pairs return to the pending log and the journal
		// record is retracted with the work still pending; retrying the
		// read re-derives the same refates and restores consistency.
		r.pruner.Requeue(refates)
		if journaled {
			r.retractRecord()
		}
		return fmt.Errorf("incremental: meta reconcile: %w", err)
	}
	r.pruner.Apply(refates)
	r.stats.Comparisons += n
	r.lastKept = r.pruner.KeptEdges()
	r.metaDirty = false
	r.perf.Reconciles++
	r.perf.ReconcileExamined = r.pruner.Examined()
	r.perf.ReconcileEvaluated += n
	return nil
}

// applyRefates evaluates the re-fated pairs that miss the decision cache
// and patches the match graph: a kept ∧ similar pair's edge is ensured
// present, every other re-fated pair's edge ensured absent. Pairs outside
// the refates keep fate, decision and edge — the delta-proportionality of
// the read path. On error nothing is mutated. The fresh decisions are
// discarded by this resolver: its journal replays the OpReconcile record
// by re-running the reconcile at the same stream point, which re-derives
// them deterministically. Callers hold r.mu.
func (r *Resolver) applyRefates(ctx context.Context, refates []metablocking.Refate) (int64, error) {
	var fresh []entity.Pair
	for _, f := range refates {
		if !f.Kept {
			continue
		}
		if _, ok := r.simCache.Get(f.Pair.A, f.Pair.B); !ok {
			fresh = append(fresh, f.Pair)
		}
	}
	n, err := evaluateFresh(ctx, r.coll, r.cfg.Matcher, r.cfg.Workers, r.simCache, fresh)
	if err != nil {
		return 0, err
	}
	// Retire the stale edges first, then add the surviving ones.
	var stale []entity.Pair
	for _, f := range refates {
		if !f.Kept {
			stale = append(stale, f.Pair)
			continue
		}
		if sim, _ := r.simCache.Get(f.Pair.A, f.Pair.B); !sim {
			stale = append(stale, f.Pair)
		}
	}
	r.dyn.RemoveEdges(stale)
	for _, f := range refates {
		if !f.Kept {
			continue
		}
		if sim, _ := r.simCache.Get(f.Pair.A, f.Pair.B); sim {
			r.dyn.AddEdge(f.Pair.A, f.Pair.B, 1)
		}
	}
	return n, nil
}
