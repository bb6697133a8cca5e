// The routed operation stream: the shard-side apply path of the networked
// deployment (internal/transport).
//
// The in-process sharded coordinator replicates every operation to every
// shard, which keeps the handle spaces trivially aligned but makes the op
// stream itself O(shards). The networked coordinator instead ROUTES: a
// shard owning one of the operation's blocking keys receives the full
// operation, every other shard a compact slot-advance record carrying only
// the sequence number, kind and handle — enough to keep its slot space and
// operation counters aligned with the global stream without ever seeing
// the description's attributes.
//
// Routing preserves the differential contract bit for bit. A shard that
// owns none of a description's keys indexes nothing for it under
// replication (its lens keyer returns the empty owned subset), matches
// nothing against it (it never enters a block there), and therefore counts
// zero comparisons for it — exactly what the slot-advance records
// reproduce at a fraction of the traffic. The only state a routed shard
// holds less of is the attribute payload of descriptions it does not own,
// which it can never need: delta candidates only ever come from its own
// block index.
//
// Every routed record carries a strictly increasing sequence number, the
// coordinator's global operation counter. A shard applies each transport
// frame as one unit (ApplyRouted) and journals it as one record with the
// numbers (Record.Seq); it snapshots the last (LastSeq) and replays them,
// so after any crash it knows exactly which prefix of the stream it
// acknowledged. A re-sent record with seq <= LastSeq is acknowledged again
// without being re-applied — the idempotent-replay half of the transport's
// ack/retry protocol. Re-applying would not only double-count operations
// but re-run delta matching and inflate the comparison counters, so
// idempotency is enforced here, below the wire.
//
// A later operation can route a description to a shard that advanced past
// its insert: an update whose new keys hash into a shard that never held
// the attributes. The routed update therefore carries the full description
// and the shard MATERIALIZES the slot — content set, indexed, resolved
// against its delta frontier — exactly as if it had owned the description
// all along. Bootstrap (image shipping) is the bulk form of the same
// idea: a shard that lost its disk receives its whole key-space projection
// from the coordinator's replica as one state image instead of a journal
// replay.
package incremental

import (
	"context"
	"fmt"

	"entityres/internal/entity"
)

// RoutedOp is one record of the routed operation stream a networked
// coordinator sends a shard, numbered by Seq: the full operation for
// shards owning one of its blocking keys — an update carries URI and
// Source too, since it can materialize the description on a shard that
// only slot-advanced it — or a compact slot-advance (Advance, no payload)
// for the rest. It is the journal record it becomes; Batch is unused.
type RoutedOp = Record

// LastSeq returns the sequence number of the last applied routed operation
// (0 before any). It is durable: journaled with every record, snapshotted,
// and restored by OpenResolver — the shard's acknowledged prefix of the
// routed stream.
func (r *Resolver) LastSeq() uint64 {
	r.rlock()
	defer r.mu.RUnlock()
	return r.lastSeq
}

// ApplyRouted applies one frame of the routed operation stream: records
// with consecutive sequence numbers. Records already acknowledged (seq <=
// LastSeq) are acknowledged again without being re-applied, and a frame
// starting beyond LastSeq+1 is refused as a gap. The rest is validated
// against the sequential state it builds — inserts take the next handles,
// update and delete targets exist (live or not), sources are valid, and a
// payload's URI collides with no live description, though one freed
// earlier in the frame may be bound again — so an invalid record refuses
// the whole frame before anything is journaled. The frame is then
// journaled as one record and applied like ApplyBatch (see commit), and
// like ApplyBatch the context gates admission only.
//
// Every routed record moves the operation counters, so a shard's counters
// always equal the global stream's. A slot-advance insert allocates a
// placeholder slot (content-free, not live locally) and ends an insert
// run; a slot-advance update moves only the counter; a full update of a
// placeholder materializes it. A delete clears the slot wherever it is
// locally live, slot-advance or not — a shard that owned the description's
// OLD keys still holds it live after the re-keying update, and a later
// insert reusing its URI must not collide against a ghost — and otherwise
// moves only the counter.
//
// A non-nil neighbors (one entry per record) receives each record's
// target's match neighbors as of the end of the run that applied it, or
// for a re-acknowledged record as of the frame's arrival. An insert run
// retires no edges, so folding the lists in record order, as the
// networked coordinator does, builds the graph per-record lists would.
func (r *Resolver) ApplyRouted(ctx context.Context, frame []RoutedOp, neighbors [][]entity.ID) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.broken != nil {
		return r.broken
	}
	if len(frame) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("incremental: routed admission: %w", err)
	}
	skip, err := r.routedSkip(frame)
	if err != nil {
		return err
	}
	if neighbors != nil {
		for i := range skip {
			neighbors[i] = r.dyn.Graph().Neighbors(frame[i].ID)
		}
		neighbors = neighbors[skip:]
	}
	if frame = frame[skip:]; len(frame) == 0 {
		return nil
	}
	if err := r.validateBatch(frame, true); err != nil {
		return err
	}
	return r.commit(frame, neighbors)
}

// routedSkip checks a routed frame's sequence numbers against the
// acknowledged stream position and returns how many of its leading records
// are already applied. The numbers must be consecutive from at most
// LastSeq+1; anything else refuses the whole frame. Callers hold r.mu.
func (r *Resolver) routedSkip(recs []Record) (int, error) {
	first := recs[0].Seq
	if first == 0 {
		return 0, fmt.Errorf("incremental: routed records are numbered from 1")
	}
	for i, rec := range recs {
		if rec.Seq != first+uint64(i) {
			return 0, fmt.Errorf("incremental: routed frame numbers record %d as %d, want %d", i, rec.Seq, first+uint64(i))
		}
	}
	if first > r.lastSeq+1 {
		return 0, fmt.Errorf("incremental: routed record %d arrived with %d applied — the stream has a gap", first, r.lastSeq)
	}
	return int(min(r.lastSeq+1-first, uint64(len(recs)))), nil
}

// materialize turns a placeholder slot into a live, indexed description:
// the routed-update path of a shard that now owns one of the description's
// keys but slot-advanced its insert. Callers hold r.mu.
func (r *Resolver) materialize(rec *Record) error {
	d := r.coll.Get(rec.ID)
	r.clearRow(rec.ID)
	d.URI, d.Source = rec.URI, rec.Source
	d.Attrs = append([]entity.Attribute(nil), rec.Attrs...)
	r.live[rec.ID] = true
	if d.URI != "" {
		r.byURI[d.URI] = rec.ID
	}
	r.liveCount++
	r.stats.Updates++
	return r.index(rec.ID, rec.ID+1)
}

// EachDeltaCandidate enumerates the distinct delta-frontier candidates of
// a live description, each with the pair's claim key — the first shared
// blocking key, the key whose owning shard evaluates the pair in a sharded
// deployment. It is the frontier walk (see walk) of an operation that
// (re)indexes id alone, so on a full (unfiltered) index it visits exactly
// the pairs a single-node resolver compares for that operation, each once:
// bucketing the visits by key owner reproduces every shard's comparison
// count without running a matcher. A networked coordinator uses this to
// ship an exact Comparisons counter to a shard that died before
// acknowledging the stream's last operation. It stops calling fn once fn
// returns false; the walk's stamps need the lock held exclusively.
func (r *Resolver) EachDeltaCandidate(id entity.ID, fn func(other entity.ID, claimKey string) bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.isLive(id) {
		return
	}
	more := true
	r.walk(id, id+1, func(key string, other entity.ID) bool {
		more = more && fn(other, key)
		return true
	})
}

// MatchedWith returns the handles currently matched to id — its direct
// match-graph neighbors, ascending — reconciling any deferred
// meta-blocking work first. Nil when id is not live or matches nothing.
// This is the read the serving layer's same-as query rides.
func (r *Resolver) MatchedWith(id entity.ID) ([]entity.ID, error) {
	if err := r.lockShared(context.Background()); err != nil {
		return nil, err
	}
	defer r.mu.RUnlock()
	if !r.isLive(id) {
		return nil, nil
	}
	return r.dyn.Graph().Neighbors(id), nil
}

// Bootstrap loads a shipped image into a pristine resolver — one that has
// applied no operations. It is the state transfer a networked coordinator
// ships a shard that cannot catch up from its own journal (typically one
// that lost its disk): the shard's key-space projection of the
// coordinator's replica, restored through the same path as a checkpoint.
// Under meta-blocking the weighted blocking graph rebuilds as the slots
// are indexed, and the image's kept pairs seed the delta pruner at the
// first reconcile, which re-fates every one of them against the rebuilt
// statistics. A durable resolver checkpoints immediately afterwards, so
// the shipped state is locally recoverable from the first moment.
func (r *Resolver) Bootstrap(im *Image) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.broken != nil {
		return r.broken
	}
	if r.coll.Len() != 0 || r.lastSeq != 0 || r.stats.Inserts+r.stats.Updates+r.stats.Deletes != 0 {
		return fmt.Errorf("incremental: bootstrap requires a pristine resolver (have %d slots, %d ops)", r.coll.Len(), r.stats.Inserts+r.stats.Updates+r.stats.Deletes)
	}
	if err := r.restore(im); err != nil {
		return err
	}
	// A durable resolver has no journal records to reproduce this state from
	// — it arrived as one transfer — so checkpoint it immediately; recovery
	// then anchors on the snapshot like any other restart.
	if _, durable := r.journal.(*walJournal); durable {
		if err := r.compactLocked(); err != nil {
			return err
		}
	}
	return nil
}
