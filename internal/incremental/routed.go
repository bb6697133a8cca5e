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
// coordinator's global operation counter. The shard journals it with the
// record (Record.Seq), snapshots it (LastSeq) and replays it, so after any
// crash the shard knows exactly which prefix of the stream it
// acknowledged; a re-sent record with seq <= LastSeq is acknowledged again
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
// coordinator sends a shard: the full operation for shards owning one of
// its blocking keys, or a compact slot-advance (Advance true, no payload)
// for the rest.
type RoutedOp struct {
	// Seq is the coordinator's global operation sequence number, starting
	// at 1 and increasing by exactly 1 per operation.
	Seq uint64
	// Kind is the logical operation (OpInsert, OpUpdate or OpDelete).
	Kind OpKind
	// Advance marks a slot-advance record: the shard owns none of the
	// operation's keys and only aligns its slot space and counters.
	Advance bool
	// ID is the handle the operation targets; for inserts, the handle the
	// coordinator assigned.
	ID entity.ID
	// URI and Source describe the full description (insert, and update —
	// an update can materialize the description on a shard that only ever
	// slot-advanced it, so it carries the identity fields too).
	URI    string
	Source int
	// Attrs is the full attribute set (insert, update).
	Attrs []entity.Attribute
}

// LastSeq returns the sequence number of the last applied routed operation
// (0 before any). It is durable: journaled with every record, snapshotted,
// and restored by OpenResolver — the shard's acknowledged prefix of the
// routed stream.
func (r *Resolver) LastSeq() uint64 {
	r.rlock()
	defer r.mu.RUnlock()
	return r.lastSeq
}

// ApplyRouted applies one record of the routed operation stream. Records
// must arrive in sequence: a record with Seq <= LastSeq was already
// acknowledged and is acknowledged again without being re-applied (the
// idempotent-replay half of the transport's retry protocol), a record
// beyond LastSeq+1 is refused as a gap. The operation is journaled before
// it is applied, exactly like ApplyBatch, and like ApplyBatch the context
// gates admission only.
func (r *Resolver) ApplyRouted(ctx context.Context, op RoutedOp) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.broken != nil {
		return r.broken
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("incremental: routed admission: %w", err)
	}
	if op.Seq == 0 {
		return fmt.Errorf("incremental: routed records are numbered from 1")
	}
	if op.Seq <= r.lastSeq {
		return nil // already acknowledged: idempotent replay
	}
	if op.Seq != r.lastSeq+1 {
		return fmt.Errorf("incremental: routed record %d arrived with %d applied — the stream has a gap", op.Seq, r.lastSeq)
	}
	if err := r.validateRouted(op); err != nil {
		return err
	}
	rec := Record{Kind: op.Kind, Seq: op.Seq, Advance: op.Advance, ID: op.ID, URI: op.URI, Source: op.Source, Attrs: op.Attrs}
	if err := r.journal.Record(rec); err != nil {
		return err
	}
	r.perf.JournalAppends++
	if err := r.applyRouted(op); err != nil {
		// Validation makes this unreachable; a failed apply may be partial,
		// so refuse further mutation rather than diverge from the journal.
		r.broken = fmt.Errorf("%w: routed record %d failed mid-apply: %v", ErrBroken, op.Seq, err)
		return r.broken
	}
	r.lastSeq = op.Seq
	return r.maybeCompact()
}

// validateRouted checks a routed record against the local slot space before
// anything is journaled. Callers hold r.mu.
func (r *Resolver) validateRouted(op RoutedOp) error {
	switch op.Kind {
	case OpInsert:
		if op.ID != r.coll.Len() {
			return fmt.Errorf("incremental: routed insert assigns handle %d but the next slot is %d", op.ID, r.coll.Len())
		}
	case OpUpdate, OpDelete:
		if op.ID < 0 || op.ID >= r.coll.Len() {
			return fmt.Errorf("incremental: routed %s targets handle %d, which does not exist", op.Kind, op.ID)
		}
	default:
		return fmt.Errorf("incremental: routed record has kind %v", op.Kind)
	}
	// A payload can materialize the description here (insert, or an update
	// of a slot-advanced one), so its source must be one the index accepts.
	if err := validSource(r.cfg.Kind, op.Source); err != nil {
		return fmt.Errorf("incremental: routed %s: %w", op.Kind, err)
	}
	// Payload-carrying records can introduce a URI to this shard (insert, or
	// an update materializing a slot-advanced description); the coordinator
	// validates uniqueness globally, but a collision here would corrupt the
	// local lookup table, so refuse before journaling.
	if !op.Advance && op.URI != "" {
		if have, taken := r.byURI[op.URI]; taken && have != op.ID {
			return fmt.Errorf("incremental: routed %s of %q collides with live handle %d", op.Kind, op.URI, have)
		}
	}
	return nil
}

// applyRouted is the state mutation of a routed record, shared with journal
// replay. The operation counters advance for EVERY record — full or
// slot-advance — so a shard's Inserts/Updates/Deletes always equal the
// global stream's, whatever fraction of the payloads it received. Callers
// hold r.mu and have validated the record.
func (r *Resolver) applyRouted(op RoutedOp) error {
	switch op.Kind {
	case OpInsert:
		if op.Advance {
			// Slot-advance: the handle exists globally but this shard owns
			// none of its keys. The slot is allocated as a placeholder —
			// content-free, not live locally — so handles stay aligned; a
			// later routed update can still materialize it.
			r.burnSlot()
			r.stats.Inserts++
			return nil
		}
		return r.insertRun([]Record{{Kind: OpInsert, ID: op.ID, URI: op.URI, Source: op.Source, Attrs: op.Attrs}})
	case OpUpdate:
		if op.Advance {
			r.stats.Updates++
			return nil
		}
		if r.isLive(op.ID) {
			return r.applyUpdate(op.ID, op.Attrs)
		}
		return r.materialize(op)
	case OpDelete:
		// A delete clears the slot wherever it is locally live, slot-advance
		// or not: a shard that owned the description's OLD keys retired its
		// block membership on the re-keying update but still holds the slot
		// live (URI table, attributes), and the description's death must
		// clear that too — otherwise a later insert reusing the globally-freed
		// URI would collide against a ghost. The Advance flag only signals
		// that no payload follows; for deletes the two forms are equivalent.
		if r.isLive(op.ID) {
			r.applyDelete(op.ID)
			return nil
		}
		// Placeholder or dead slot: only the counter moves.
		r.stats.Deletes++
		return nil
	default:
		return fmt.Errorf("incremental: routed record has kind %v", op.Kind)
	}
}

// materialize turns a placeholder slot into a live, indexed description:
// the routed-update path of a shard that now owns one of the description's
// keys but slot-advanced its insert. Callers hold r.mu.
func (r *Resolver) materialize(op RoutedOp) error {
	d := r.coll.Get(op.ID)
	d.URI, d.Source = op.URI, op.Source
	d.Attrs = append([]entity.Attribute(nil), op.Attrs...)
	r.live[op.ID] = true
	if d.URI != "" {
		r.byURI[d.URI] = op.ID
	}
	r.liveCount++
	r.stats.Updates++
	return r.index(op.ID, op.ID+1)
}

// replayRouted re-applies one journaled routed record during recovery.
// Callers hold no lock (the resolver is not yet published).
func (r *Resolver) replayRouted(rec Record) error {
	if rec.Seq != r.lastSeq+1 {
		return fmt.Errorf("incremental: journal routed record %d follows %d — the log has a gap", rec.Seq, r.lastSeq)
	}
	op := RoutedOp{Seq: rec.Seq, Kind: rec.Kind, Advance: rec.Advance, ID: rec.ID, URI: rec.URI, Source: rec.Source, Attrs: rec.Attrs}
	if err := r.validateRouted(op); err != nil {
		return err
	}
	if err := r.applyRouted(op); err != nil {
		return fmt.Errorf("incremental: replaying routed record %d: %w", rec.Seq, err)
	}
	r.lastSeq = rec.Seq
	return nil
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
