// The coordinator of every sharded deployment — networked, or in-process
// through OpenLocal: the client side of the routed op stream.
//
// The coordinator keeps a FULL local replica of the stream — a plain
// incremental.Resolver over the unpartitioned blocker — and that replica's
// WAL is the coordinator journal: every accepted operation is journaled and
// applied locally BEFORE it is fanned out, so a coordinator restart
// replays its own log back to exactly the acknowledged stream (operation
// counters, slot space, URI table, block index and, under meta-blocking,
// the decision cache and comparison counter — the journaled reconcile
// records re-earn it bit for bit).
//
// What the replica does NOT do is match (outside meta-blocking): its delta
// filter claims no candidate pair, so the matcher work — the expensive part
// — happens only on the shards, each evaluating exactly the pairs whose
// first shared blocking key it owns. Their acknowledgements stream the
// results back: the cumulative comparison counter and the operated-on
// description's current match neighbors, which the coordinator folds into
// its global match graph. Under meta-blocking the roles flip: shards defer
// all matching and the coordinator's replica reconciles the (full, local)
// weighted blocking graph itself — exactly the single-node resolver's
// reconcile, since the replica indexes the whole key space.
//
// Delivery discipline: each operation travels in full only to the shards
// owning one of its blocking keys; the rest receive slot-advance records.
// A delivery failure marks the shard DOWN and the operation still counts —
// it is journaled locally and applied everywhere reachable — but further
// mutations are refused until RejoinShard, which closes the gap from the
// durable invariant that a non-wiped shard is always at seq or at the start
// of the last journaled record (a shard journals each frame as one
// record): nothing to do, one idempotent re-send of that record's
// operations, or a full bootstrap ship for a shard that lost its disk.
package transport

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"entityres/internal/blocking"
	"entityres/internal/entity"
	"entityres/internal/graph"
	"entityres/internal/incremental"
	"entityres/internal/sharded"
	"entityres/internal/wal"
)

// ShardUnavailableError reports shards that could not be reached during a
// fan-out. The operation itself was accepted — journaled and applied on the
// coordinator and every reachable shard — and completes on the missing
// shards when they rejoin; until then further mutations are refused.
type ShardUnavailableError struct{ Shards []int }

func (e *ShardUnavailableError) Error() string {
	parts := make([]string, len(e.Shards))
	for i, s := range e.Shards {
		parts[i] = fmt.Sprint(s)
	}
	return fmt.Sprintf("transport: shard(s) %s unavailable; the operation is journaled and completes on rejoin", strings.Join(parts, ","))
}

// TransportStats are the coordinator's process-lifetime delivery counters —
// the routed-delivery evidence the test suites assert on.
type TransportStats struct {
	// FullOps counts full-payload deliveries, AdvanceOps slot-advance
	// deliveries. Under routing FullOps stays well below ops×shards; under
	// replication it would equal it.
	FullOps, AdvanceOps int64
	// Down lists the currently unavailable shards, ascending.
	Down []int
}

// Coordinator drives a networked deployment: local replica plus one
// ShardClient per shard. All methods are safe for concurrent use;
// operations are serialized and fanned out in parallel.
type Coordinator struct {
	cfg      sharded.Config
	shards   int
	rawKeyer blocking.KeyFunc

	// mu is a reader/writer lock: mutations and shard-state changes hold
	// it exclusively, read-only queries share it (the replica additionally
	// serializes on its own RWMutex, so meta-blocking reads that delegate
	// wholly to it never touch this lock at all).
	mu      sync.RWMutex
	rep     *incremental.Resolver
	clients []*ShardClient
	down    []bool
	// seq is the global stream position: the number of accepted operations.
	seq uint64
	// lastOps is the most recently journaled record's operations — one for
	// a single mutation, the whole batch for ApplyBatch — in full-payload
	// routed form, retained for the idempotent tail re-send a shard inside
	// the record's crash window needs.
	lastOps []incremental.RoutedOp
	// ackedSeq and shardComp mirror each shard's last acknowledgement:
	// stream position and cumulative matcher-invocation counter.
	ackedSeq  []uint64
	shardComp []int64
	// dyn is the global match graph, folded from shard acknowledgements
	// (nil under meta-blocking, where the replica reconciles it locally).
	dyn               *graph.Dynamic
	fullSent, advSent int64
	perf              incremental.PerfCounters
	broken            error
	// host is the shard servers this process runs for an in-process
	// deployment (OpenLocal); nil when the shards are other processes.
	host *hosted
}

// OpenCoordinator connects a coordinator to its shard servers. dir is the
// coordinator's journal directory ("" keeps the replica in memory, as an
// in-memory OpenLocal deployment does); len(addrs) is the shard count and
// must equal cfg.Shards when that is set. Every shard must be reachable:
// the open verifies each shard's stream position against the replayed
// journal, re-sends the one operation a crash may have torn off a shard,
// and refuses positions it cannot reconcile.
func OpenCoordinator(ctx context.Context, dir string, cfg sharded.Config, addrs []string, opts ClientOptions) (*Coordinator, error) {
	shards := len(addrs)
	if shards < 1 {
		return nil, fmt.Errorf("transport: a coordinator needs at least one shard address")
	}
	if cfg.Shards == 0 {
		cfg.Shards = shards
	}
	if cfg.Shards != shards {
		return nil, fmt.Errorf("transport: config names %d shards but %d addresses were given", cfg.Shards, shards)
	}
	repCfg := incremental.Config{
		Kind:    cfg.Kind,
		Blocker: cfg.Blocker,
		Matcher: cfg.Matcher,
		Workers: cfg.Workers,
		Meta:    cfg.Meta,
		Durable: cfg.Durable,
	}
	if cfg.Meta == nil {
		// The replica indexes everything and matches nothing: the claim
		// function yields every candidate pair to the shard owning its
		// first shared key. (With meta-blocking the filter stays nil — the
		// deferred path never delta-matches, and the reconcile must run the
		// exact single-node evaluation.)
		repCfg.DeltaFilter = func(*entity.Description) func(string, *entity.Description) bool {
			return func(string, *entity.Description) bool { return false }
		}
	}
	var rep *incremental.Resolver
	var err error
	if dir == "" {
		rep, err = incremental.New(repCfg)
	} else {
		rep, err = incremental.OpenResolver(dir, repCfg)
	}
	if err != nil {
		return nil, err
	}
	c := rep.Counters()
	r := &Coordinator{
		cfg:       cfg,
		shards:    shards,
		rawKeyer:  cfg.Blocker.StreamKeyer(),
		rep:       rep,
		down:      make([]bool, shards),
		ackedSeq:  make([]uint64, shards),
		shardComp: make([]int64, shards),
		seq:       uint64(c.Inserts + c.Updates + c.Deletes),
	}
	if cfg.Meta == nil {
		r.dyn = graph.NewDynamic()
	}
	if rec, ok := rep.LastRecord(); ok && r.seq > 0 {
		r.lastOps = r.routedTail(rec)
	}
	expect := Hello{Shards: shards, Kind: int(cfg.Kind), Meta: cfg.Meta != nil}
	for i, addr := range addrs {
		e := expect
		e.Index = i
		r.clients = append(r.clients, NewShardClient(addr, e, opts))
	}
	for i := range r.clients {
		r.down[i] = true
		if err := r.rejoinLocked(ctx, i); err != nil {
			rep.Close()
			return nil, fmt.Errorf("transport: connecting shard %d: %w", i, err)
		}
	}
	return r, nil
}

// routedTail rebuilds the full-payload routed forms of the replica's last
// journaled record — the re-send tail a shard inside the record's crash
// window is owed. A batch's update sub-records carry their identity inline
// (ApplyBatch enriches them at accept time), so the tail reconstructs even
// when a later sub-record deleted the handle. A batch of one is journaled
// bare, in the per-op shape whose update carries only handle and
// attributes; its identity comes from the replica (the handle is
// necessarily live: it was the last operation). Returns nil when no tail
// can be rebuilt; rejoin then refuses gapped shards.
func (r *Coordinator) routedTail(rec incremental.Record) []incremental.RoutedOp {
	subs := rec.Ops()
	if rec.Kind == incremental.OpUpdate {
		d, ok := r.rep.Get(rec.ID)
		if !ok {
			return nil
		}
		subs = []incremental.Record{{Kind: rec.Kind, ID: rec.ID, URI: d.URI, Source: d.Source, Attrs: d.Attrs}}
	}
	base := r.seq - uint64(len(subs))
	ops := make([]incremental.RoutedOp, 0, len(subs))
	for i, sub := range subs {
		switch sub.Kind {
		case incremental.OpInsert, incremental.OpUpdate, incremental.OpDelete:
		default:
			return nil
		}
		ops = append(ops, incremental.RoutedOp{Seq: base + uint64(i) + 1, Kind: sub.Kind, ID: sub.ID, URI: sub.URI, Source: sub.Source, Attrs: sub.Attrs})
	}
	return ops
}

// keysOf derives a description's distinct blocking key set with the raw
// (unpartitioned) keyer — the key→shard directory's domain.
func (r *Coordinator) keysOf(d *entity.Description) []string {
	return blocking.DistinctKeys(r.rawKeyer(d))
}

// ownersOf maps key sets to the shard set owning at least one of the keys.
func (r *Coordinator) ownersOf(keySets ...[]string) []bool {
	owners := make([]bool, r.shards)
	for _, keys := range keySets {
		for _, k := range keys {
			owners[sharded.KeyOwner(k, r.shards)] = true
		}
	}
	return owners
}

// ready refuses mutations while the coordinator is broken or a shard is
// down. Callers hold r.mu.
func (r *Coordinator) ready() error {
	if r.broken != nil {
		return r.broken
	}
	var down []int
	for i, d := range r.down {
		if d {
			down = append(down, i)
		}
	}
	if down != nil {
		return &ShardUnavailableError{Shards: down}
	}
	return nil
}

// Insert accepts a new description: journaled and applied on the replica,
// then routed — full payload to the shards owning one of its keys,
// slot-advance to the rest. A batch of one, like every mutation.
func (r *Coordinator) Insert(ctx context.Context, d *entity.Description) (entity.ID, error) {
	return incremental.InsertOne(ctx, r, d)
}

// Update re-keys and re-resolves a live description (a batch of one).
func (r *Coordinator) Update(ctx context.Context, id entity.ID, attrs []entity.Attribute) error {
	return incremental.UpdateOne(ctx, r, id, attrs)
}

// Delete removes a live description everywhere it is materialized (a batch
// of one).
func (r *Coordinator) Delete(ctx context.Context, id entity.ID) error {
	return incremental.DeleteOne(ctx, r, id)
}

// Apply executes one URI-addressed operation — the same op-script form the
// single-node and in-process sharded resolvers accept, so the differential
// suites replay identical scripts through all three deployments.
func (r *Coordinator) Apply(ctx context.Context, op incremental.Op) error {
	return incremental.ApplyOne(ctx, r, op)
}

// ApplyBatch is the coordinator's one apply path: it accepts a batch of
// insert, update and delete records as one sequential unit — validated up
// front, journaled and applied on the replica as ONE journal append, then
// delivered as ONE pipelined frame per shard. Per-operation routing is
// preserved inside the frame: each operation travels in full only to the
// shards owning one of its blocking keys (for an update, also to the owners
// of its OLD keys, which must retire membership) and as a slot-advance
// record elsewhere, so the differential contract holds bit for bit against
// applying the records one at a time. The context gates admission only:
// once admitted, the batch is journaled, applied and delivered under a
// context that no longer cancels, so a caller giving up mid-fan-out cannot
// mark a healthy shard down.
func (r *Coordinator) ApplyBatch(ctx context.Context, recs []incremental.Record) error {
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
	ctx = context.WithoutCancel(ctx)
	err := incremental.PlanBatch(r.cfg.Kind, entity.ID(r.rep.Slots()),
		r.rep.Lookup,
		func(id entity.ID) bool { _, ok := r.rep.Get(id); return ok },
		func(id entity.ID) string {
			if d, ok := r.rep.Get(id); ok {
				return d.URI
			}
			return ""
		},
		recs)
	if err != nil {
		return fmt.Errorf("transport: %w", err)
	}
	// Build the routed forms and per-operation ownership BEFORE the replica
	// applies, while every pre-image is still readable: an update's full
	// payload must also reach the owners of its OLD keys, and its routed
	// form needs the description's identity. The overlay tracks descriptions
	// as the batch evolves them, so later records route against the state
	// their predecessors will have built.
	overlay := make(map[entity.ID]*entity.Description)
	desc := func(id entity.ID) (*entity.Description, bool) {
		if d, ok := overlay[id]; ok {
			return d, d != nil
		}
		return r.rep.Get(id)
	}
	ops := make([]incremental.RoutedOp, len(recs))
	owners := make([][]bool, len(recs))
	for i := range recs {
		rec := &recs[i]
		seq := r.seq + uint64(i) + 1
		switch rec.Kind {
		case incremental.OpInsert:
			d := &entity.Description{ID: rec.ID, URI: rec.URI, Source: rec.Source, Attrs: rec.Attrs}
			ops[i] = incremental.RoutedOp{Seq: seq, Kind: rec.Kind, ID: rec.ID, URI: rec.URI, Source: rec.Source, Attrs: rec.Attrs}
			owners[i] = r.ownersOf(r.keysOf(d))
			overlay[rec.ID] = d
		case incremental.OpUpdate:
			old, ok := desc(rec.ID)
			if !ok {
				return fmt.Errorf("transport: batch record %d updates dead handle %d after validation", i, rec.ID)
			}
			oldKeys := r.keysOf(old)
			next := &entity.Description{ID: rec.ID, URI: old.URI, Source: old.Source, Attrs: rec.Attrs}
			// Enrich the journaled record with the description's identity:
			// a restarted coordinator rebuilds the full routed form straight
			// from its last journal record (routedTail), even when a later
			// record in the same batch deletes the handle.
			rec.URI, rec.Source = old.URI, old.Source
			ops[i] = incremental.RoutedOp{Seq: seq, Kind: rec.Kind, ID: rec.ID, URI: old.URI, Source: old.Source, Attrs: rec.Attrs}
			owners[i] = r.ownersOf(oldKeys, r.keysOf(next))
			overlay[rec.ID] = next
		case incremental.OpDelete:
			old, ok := desc(rec.ID)
			if !ok {
				return fmt.Errorf("transport: batch record %d deletes dead handle %d after validation", i, rec.ID)
			}
			ops[i] = incremental.RoutedOp{Seq: seq, Kind: rec.Kind, ID: rec.ID}
			owners[i] = r.ownersOf(r.keysOf(old))
			overlay[rec.ID] = nil
		}
	}
	if err := r.rep.ApplyBatch(ctx, recs); err != nil {
		return err
	}
	r.seq += uint64(len(recs))
	r.lastOps = ops
	return r.fanoutBatch(ctx, ops, owners)
}

// fanoutBatch delivers an accepted batch to every shard as one frame each —
// full payload where the shard owns one of the operation's keys,
// slot-advance elsewhere — and folds the cumulative acknowledgements in
// operation order, reproducing exactly what applying the operations one at
// a time would have built. Unreachable shards are marked down; a semantic
// refusal breaks the coordinator (the states have diverged and nothing
// local can mend that). Callers hold r.mu.
func (r *Coordinator) fanoutBatch(ctx context.Context, ops []incremental.RoutedOp, owners [][]bool) error {
	r.perf.FanOuts++
	r.perf.TransportRoundTrips += int64(r.shards)
	frames := make([][]incremental.RoutedOp, r.shards)
	for j := 0; j < r.shards; j++ {
		frame := make([]incremental.RoutedOp, len(ops))
		for i, op := range ops {
			if owners[i][j] {
				frame[i] = op
				r.fullSent++
			} else {
				frame[i] = incremental.RoutedOp{Seq: op.Seq, Kind: op.Kind, Advance: true, ID: op.ID}
				r.advSent++
			}
		}
		frames[j] = frame
	}
	type result struct {
		ack BatchAck
		err error
	}
	results := make([]result, r.shards)
	var wg sync.WaitGroup
	for j := 0; j < r.shards; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			ack, err := r.clients[j].ApplyBatch(ctx, frames[j])
			results[j] = result{ack: ack, err: err}
		}(j)
	}
	wg.Wait()
	var downed []int
	for j, res := range results {
		if res.err != nil {
			var rerr *RemoteError
			if errors.As(res.err, &rerr) {
				r.broken = fmt.Errorf("transport: shard %d refused the batch ending at operation %d — the deployment has diverged: %w", j, ops[len(ops)-1].Seq, res.err)
				return r.broken
			}
			r.down[j] = true
			downed = append(downed, j)
			continue
		}
		r.ackedSeq[j] = res.ack.Seq
		r.shardComp[j] = res.ack.Comparisons
	}
	if r.dyn != nil {
		// Fold in operation order: an update or delete first retires the
		// handle's edges UNCONDITIONALLY — the replica applied the whole
		// batch even where no shard acknowledged — then each acknowledging
		// shard's neighbor list (as of the run that applied the operation)
		// re-adds the operation's matches.
		// The interleaving is what makes a re-delivered frame safe: a
		// re-acked prefix operation may report final-state neighbors, but
		// any such edge that a later operation retires is removed again at
		// that operation's position and re-added from its accurate list.
		for i, op := range ops {
			if op.Kind == incremental.OpUpdate || op.Kind == incremental.OpDelete {
				r.dyn.RemoveNode(op.ID)
			}
			if op.Kind == incremental.OpDelete {
				continue
			}
			for j := range results {
				if results[j].err != nil {
					continue
				}
				for _, nb := range results[j].ack.Neighbors[i] {
					r.dyn.AddEdge(op.ID, nb, 1)
				}
			}
		}
	}
	if downed != nil {
		return &ShardUnavailableError{Shards: downed}
	}
	return nil
}

// RejoinShard reconnects a down shard and closes whatever gap its absence
// left: nothing for a shard that kept up, one idempotent re-send for a
// shard inside the last journaled record, a full bootstrap ship for a
// pristine (wiped) shard.
func (r *Coordinator) RejoinShard(ctx context.Context, i int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.broken != nil {
		return r.broken
	}
	if i < 0 || i >= r.shards {
		return fmt.Errorf("transport: no shard %d", i)
	}
	return r.rejoinLocked(ctx, i)
}

func (r *Coordinator) rejoinLocked(ctx context.Context, i int) error {
	h, err := r.clients[i].Hello(ctx)
	if err != nil {
		return err
	}
	switch {
	case h.LastSeq == r.seq:
		// Fully caught up (possibly an acknowledgement we never saw).
	case h.LastSeq < r.seq && r.seq-h.LastSeq <= uint64(len(r.lastOps)):
		// The shard sits inside the last journaled record's delivery window
		// — at most one record (one op, or one whole batch) can be in
		// flight, and a current shard journals a frame whole, so it sits at
		// the record's start. Re-send the missing tail in full as one frame
		// — a shard the original routing only advanced tolerates the
		// payload (its lens ignores keys it does not own), and any
		// already-applied prefix re-acks idempotently.
		tail := r.lastOps[len(r.lastOps)-int(r.seq-h.LastSeq):]
		if _, err := r.clients[i].ApplyBatch(ctx, tail); err != nil {
			return fmt.Errorf("transport: re-sending operations %d..%d to shard %d: %w", tail[0].Seq, r.seq, i, err)
		}
	case h.LastSeq == 0 && h.Inserts+h.Updates+h.Deletes == 0:
		// A pristine resolver where state should be: the shard lost its
		// disk. Ship its whole key-space projection.
		if r.seq > 0 {
			blob, err := r.bootstrapBlob(i)
			if err != nil {
				return err
			}
			if err := r.clients[i].Bootstrap(ctx, blob); err != nil {
				return fmt.Errorf("transport: bootstrapping shard %d: %w", i, err)
			}
		}
	default:
		return fmt.Errorf("transport: shard %d reports stream position %d, coordinator is at %d — no journal can close that gap", i, h.LastSeq, r.seq)
	}
	st, err := r.clients[i].State(ctx)
	if err != nil {
		return err
	}
	c := r.rep.Counters()
	if st.LastSeq != r.seq || st.Inserts != c.Inserts || st.Updates != c.Updates || st.Deletes != c.Deletes {
		return fmt.Errorf("transport: shard %d settled at seq=%d ops=%d/%d/%d, coordinator has seq=%d ops=%d/%d/%d",
			i, st.LastSeq, st.Inserts, st.Updates, st.Deletes, r.seq, c.Inserts, c.Updates, c.Deletes)
	}
	r.ackedSeq[i] = st.LastSeq
	r.shardComp[i] = st.Comparisons
	if r.dyn != nil {
		// Union the shard's full edge set: recovers matches whose
		// acknowledgement a crash swallowed. Additive is safe — edges this
		// shard owns can only have been (re)discovered by it.
		for _, e := range st.Edges {
			r.dyn.AddEdge(e.A, e.B, 1)
		}
	}
	r.down[i] = false
	return nil
}

// bootstrapBlob builds shard i's key-space projection of the replica as a
// CRC-framed state image: the shard's fingerprint, its owned slots and
// keys, its owned slice of the match graph, the global operation counters,
// and the comparison counter an uninterrupted shard i would hold at this
// stream position. Callers hold r.mu.
func (r *Coordinator) bootstrapBlob(i int) ([]byte, error) {
	// The shard's blocker forwards the raw blocker's name, so the replica
	// configuration's fingerprint is the shard's.
	im := incremental.NewImage(incremental.Config{Kind: r.cfg.Kind, Blocker: r.cfg.Blocker, Matcher: r.cfg.Matcher, Meta: r.cfg.Meta})
	im.LastSeq = r.seq
	im.MetaDirty = r.cfg.Meta != nil
	c := r.rep.Counters()
	im.Stats = incremental.ImageStats{Inserts: c.Inserts, Updates: c.Updates, Deletes: c.Deletes}
	keys := make(map[entity.ID][]string)
	r.rep.EachSlot(func(id entity.ID, live bool, d *entity.Description) bool {
		var sl incremental.ImageSlot
		if live {
			full := r.keysOf(d)
			keys[id] = full
			var owned []string
			for _, k := range full {
				if sharded.KeyOwner(k, r.shards) == i {
					owned = append(owned, k)
				}
			}
			if owned != nil {
				sl = incremental.NewImageSlot(d, owned)
			}
		}
		im.Slots = append(im.Slots, sl)
		return true
	})
	// Under meta-blocking the replica reconciles the match graph itself
	// (r.dyn is nil): the image ships no matches, and so no kept pairs.
	if r.dyn != nil {
		for _, e := range r.dyn.SnapshotEdges() {
			if fs, ok := sharded.FirstSharedKey(keys[e.A], keys[e.B]); ok && sharded.KeyOwner(fs, r.shards) == i {
				im.Matches = append(im.Matches, [2]entity.ID{e.A, e.B})
			}
		}
		comp, err := r.compAt(i)
		if err != nil {
			return nil, err
		}
		im.Stats.Comparisons = comp
	}
	payload, err := im.Encode()
	if err != nil {
		return nil, err
	}
	return wal.EncodeFramed(payload)
}

// compAt returns the cumulative comparison count an uninterrupted shard i
// would hold at the current stream position: its last acknowledged counter
// plus its claimed share of the unacknowledged tail — countable exactly
// from the replica's full index because the claim key of every frontier
// pair is known. A one-operation gap is always exact (the replica's final
// state IS that operation's post-state); a deeper gap is exact only for an
// all-insert tail, where an insert's at-time frontier is its final-state
// candidate set minus the pairs against later tail inserts (each counted
// at the LATER insert, whose enumeration sees both). A mixed deeper tail
// cannot be reconstructed and errors. Callers hold r.mu.
func (r *Coordinator) compAt(i int) (int64, error) {
	comp := r.shardComp[i]
	if r.ackedSeq[i] == r.seq {
		return comp, nil
	}
	if r.ackedSeq[i] < r.seq && r.seq-r.ackedSeq[i] <= uint64(len(r.lastOps)) {
		tail := r.lastOps[len(r.lastOps)-int(r.seq-r.ackedSeq[i]):]
		claimShare := func(opID entity.ID, skipAbove bool) {
			r.rep.EachDeltaCandidate(opID, func(other entity.ID, claimKey string) bool {
				if skipAbove && other > opID {
					return true
				}
				if sharded.KeyOwner(claimKey, r.shards) == i {
					comp++
				}
				return true
			})
		}
		if len(tail) == 1 {
			if tail[0].Kind != incremental.OpDelete {
				claimShare(tail[0].ID, false)
			}
			return comp, nil
		}
		allInsert := true
		for _, op := range tail {
			if op.Kind != incremental.OpInsert {
				allInsert = false
				break
			}
		}
		if allInsert {
			for _, op := range tail {
				claimShare(op.ID, true)
			}
			return comp, nil
		}
	}
	return 0, fmt.Errorf("transport: shard %d last acknowledged operation %d of %d — its comparison counter cannot be reconstructed (was the coordinator journal moved between deployments?)", i, r.ackedSeq[i], r.seq)
}

// Stats reports the deployment's counters: operations and blocks from the
// replica, comparisons from the shard acknowledgements — adjusted by the
// claimed share of an operation a down shard has not yet acknowledged, so
// the total equals the single-node count at every stream position.
func (r *Coordinator) Stats() (incremental.Stats, error) {
	if r.cfg.Meta != nil {
		// The replica IS the single-node resolver here (its reconcile does
		// the matching); its stats are exact verbatim.
		return r.rep.Stats()
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	st := r.rep.Counters()
	st.Comparisons = 0
	for i := range r.shardComp {
		comp, err := r.compAt(i)
		if err != nil {
			// Unreconstructable share (cannot happen while the coordinator
			// lives — mutations refuse past one op of divergence); report
			// the acknowledged floor.
			comp = r.shardComp[i]
		}
		st.Comparisons += comp
	}
	st.Matches = r.dyn.NumEdges()
	st.Clusters = r.dyn.NumClusters()
	return st, nil
}

// Matches returns the current global match pairs over internal handles.
func (r *Coordinator) Matches() (*entity.Matches, error) {
	if r.cfg.Meta != nil {
		return r.rep.Matches()
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.dyn.Matches(), nil
}

// Clusters returns the current non-singleton clusters over internal
// handles.
func (r *Coordinator) Clusters() ([][]entity.ID, error) {
	if r.cfg.Meta != nil {
		return r.rep.Clusters()
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.dyn.Clusters(), nil
}

// ClusterOf returns id's global entity cluster, ascending, or nil when id
// matches nothing.
func (r *Coordinator) ClusterOf(id entity.ID) ([]entity.ID, error) {
	if r.cfg.Meta != nil {
		return r.rep.ClusterOf(id)
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.dyn.ClusterOf(id), nil
}

// MatchedWith returns the handles currently matched to id, reconciling
// deferred meta-blocking work first. Nil when id is not live.
func (r *Coordinator) MatchedWith(id entity.ID) ([]entity.ID, error) {
	if r.cfg.Meta != nil {
		return r.rep.MatchedWith(id)
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if _, live := r.rep.Get(id); !live {
		return nil, nil
	}
	return r.dyn.Graph().Neighbors(id), nil
}

// Blocks materializes the global block collection from the replica's full
// index — identical to the single-node resolver's.
func (r *Coordinator) Blocks() *blocking.Blocks { return r.rep.Blocks() }

// RestructuredBlocks reconciles and renders the pruned global blocking
// graph (meta-blocking deployments; nil otherwise).
func (r *Coordinator) RestructuredBlocks() (*blocking.Blocks, error) {
	return r.rep.RestructuredBlocks()
}

// Flush settles any deferred meta-blocking work.
func (r *Coordinator) Flush(ctx context.Context) error { return r.rep.Flush(ctx) }

// Lookup returns the handle of the live description with the given URI.
func (r *Coordinator) Lookup(uri string) (entity.ID, bool) { return r.rep.Lookup(uri) }

// Get returns a copy of the live description with the given handle.
func (r *Coordinator) Get(id entity.ID) (*entity.Description, bool) { return r.rep.Get(id) }

// Seq returns the global stream position: accepted operations so far.
func (r *Coordinator) Seq() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.seq
}

// Perf reports the coordinator PROCESS's perf counters: the replica's
// (journal appends, reconcile and snapshot work) plus the coordinator's own
// fan-out and round-trip counters. Shard-server-side work — their journal
// appends in particular — happens in other processes and is not included.
func (r *Coordinator) Perf() incremental.PerfCounters {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := r.perf
	out.Add(r.rep.Perf())
	return out
}

// TransportStats reports the delivery counters and down set.
func (r *Coordinator) TransportStats() TransportStats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ts := TransportStats{FullOps: r.fullSent, AdvanceOps: r.advSent}
	for i, d := range r.down {
		if d {
			ts.Down = append(ts.Down, i)
		}
	}
	sort.Ints(ts.Down)
	return ts
}

// Close disconnects from the shards and seals the coordinator journal.
// Remote shard servers are not touched — they are other processes; the
// servers of an in-process deployment are closed with it.
func (r *Coordinator) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.clients {
		c.Close()
	}
	if r.broken == nil {
		r.broken = fmt.Errorf("transport: coordinator is closed")
	}
	return errors.Join(r.rep.Close(), r.host.close())
}

// Abandon drops connections and abandons the replica's WAL handles without
// sealing — and those of any in-process shard servers — the kill -9 of the
// chaos suites.
func (r *Coordinator) Abandon() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.clients {
		c.Close()
	}
	r.broken = fmt.Errorf("transport: coordinator is abandoned")
	r.rep.Abandon()
	r.host.abandon()
}

// Recovery reports what each journal this process opened restored: the
// coordinator's replica first, then every in-process shard in index order.
func (r *Coordinator) Recovery() []incremental.RecoveryInfo {
	out := []incremental.RecoveryInfo{r.rep.Recovery()}
	if r.host != nil {
		for _, s := range r.host.servers {
			out = append(out, s.res.Recovery())
		}
	}
	return out
}
