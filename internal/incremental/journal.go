// The resolver's durable storage layer: every batch — a single Insert,
// Update or Delete is a batch of one — is journaled through a pluggable
// Journal BEFORE it is applied, so a WAL-backed journal (wal.Log segments +
// snapshot compaction) can restore a crashed resolver to exactly the state
// the acknowledged operations built.
//
// The write path is validate-journal-apply: the context and every record
// are checked before the append, so an admitted batch always applies and
// the journal holds exactly the operations the caller saw succeed. (A
// journaled reconcile whose evaluation is cancelled is the one record
// retracted again.) Journals written before the context became an
// admission-only gate may hold handle gaps left by inserts cancelled
// mid-apply, whose slots were burned; replay reproduces such slots from the
// gaps, keeping recovered handles identical to the original run's.
//
// Compaction bounds recovery: every DurableOptions.SnapshotEvery journaled
// records the resolver rotates the log, writes a snapshot of its full state
// (surviving descriptions with their blocking keys, match graph, weighted
// blocking graph, matcher-decision cache, counters) named after the new
// active segment, and deletes the segments the snapshot covers. OpenResolver
// restores the latest snapshot and replays only the tail — the records
// journaled after it.
package incremental

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"entityres/internal/entity"
	"entityres/internal/wal"
)

// Record is one resolver operation in its journaled, replayable form.
type Record struct {
	// Kind is the operation.
	Kind OpKind
	// Seq, when non-zero, marks a routed-stream record (see routed.go): the
	// coordinator's global operation sequence number, journaled so recovery
	// restores exactly the acknowledged prefix of the stream and replays the
	// record with its routed forms.
	Seq uint64
	// Advance marks a routed slot-advance record — no payload, only slot
	// space and counter alignment. Meaningful only with Seq set.
	Advance bool
	// ID is the handle the operation targets — for inserts, the handle the
	// resolver is about to assign, which replay verifies (and uses to
	// reproduce burned slots).
	ID entity.ID
	// URI and Source describe an inserted (or routed-updated) description.
	URI    string
	Source int
	// Attrs is the full attribute set (insert, update).
	Attrs []entity.Attribute
	// Batch holds the sub-records of an OpBatch record — the operations of
	// one ApplyBatch call or routed frame, journaled as a single append and
	// replayed atomically. Empty for every other kind.
	Batch []Record
}

// Journal persists the resolver's operation stream ahead of application.
// The in-memory resolver runs on the no-op implementation; OpenResolver
// installs the WAL-backed one. Implementations are called with the
// resolver's mutex held and need not be safe for concurrent use.
type Journal interface {
	// Record durably appends rec before the resolver applies it.
	Record(rec Record) error
	// Rollback retracts the most recently recorded record after its apply
	// failed (a cancelled reconcile), so the journal holds exactly the
	// acknowledged work.
	Rollback() error
	// Checkpoint durably persists an encoded full snapshot and truncates
	// the journal so recovery replays only records appended after this
	// call. The snapshot supersedes every earlier one.
	Checkpoint(snapshot []byte) error
	// Close releases the journal. Already-journaled records stay durable.
	Close() error
}

// nopJournal is the in-memory resolver's journal: nothing is persisted,
// nothing is replayed — the pre-durability behavior, at zero cost.
type nopJournal struct{}

func (nopJournal) Record(Record) error     { return nil }
func (nopJournal) Rollback() error         { return nil }
func (nopJournal) Checkpoint([]byte) error { return nil }
func (nopJournal) Close() error            { return nil }

// DurableOptions tunes the WAL-backed journal behind OpenResolver. New
// ignores it.
type DurableOptions struct {
	// SegmentBytes rotates the active WAL segment once it would exceed this
	// size (default wal.DefaultSegmentBytes).
	SegmentBytes int64
	// SnapshotEvery compacts — snapshot plus WAL truncation — after this
	// many journal records, a batch or routed frame counting once (default
	// DefaultSnapshotEvery; negative disables automatic compaction, leaving
	// cadence to explicit Compact calls).
	SnapshotEvery int
	// NoSync skips the per-append fsync. A process crash loses nothing (the
	// page cache survives it); a machine crash may lose operations
	// acknowledged since the last sync. For tests, benchmarks and workloads
	// that can afford to replay.
	NoSync bool
	// GroupCommit batches the fsyncs of concurrent journal appenders into
	// group syncs (wal.Options.GroupCommit): every operation is still
	// durable before it is acknowledged, but one fsync can cover many.
	// Batching requires concurrent appenders on one log; a resolver
	// serializes its own operations, so with a single writer the mode is
	// sync-for-sync identical to per-op fsync. The sharded resolver
	// enables it on every per-shard WAL so concurrent ingestion (the
	// multi-process-transport follow-on) batches automatically.
	GroupCommit bool
}

// DefaultSnapshotEvery is the automatic compaction cadence when
// DurableOptions.SnapshotEvery is zero.
const DefaultSnapshotEvery = 1024

// ShardedManifestName is the marker file a sharded deployment root
// (package sharded) pins its layout with. It lives here — the one durable
// layer both deployment forms build on — so the single-node OpenResolver
// and the sharded coordinator agree on it from a single definition and
// can refuse to open each other's directories.
const ShardedManifestName = "shards.manifest"

// RecoveryInfo describes what OpenResolver restored.
type RecoveryInfo struct {
	// Recovered reports whether existing state was found in the directory.
	Recovered bool
	// SnapshotSegment is the WAL segment the restored snapshot is named
	// after — replay started there; 0 when no snapshot was found.
	SnapshotSegment uint64
	// ReplayedRecords counts the journal records replayed after the
	// snapshot, a batch or routed frame counting once: the recovery cost,
	// bounded by the tail of the stream — at most SnapshotEvery records
	// plus their interleaved reconcile records (each requires a preceding
	// record, so the tail never exceeds twice the compaction cadence) —
	// never by its lifetime.
	ReplayedRecords int
}

// recordJSON is the wire form of a journal record, one JSON object per WAL
// frame.
type recordJSON struct {
	Op     string       `json:"op"`
	Seq    uint64       `json:"seq,omitempty"`
	Adv    bool         `json:"adv,omitempty"`
	ID     int          `json:"id"`
	URI    string       `json:"uri,omitempty"`
	Source int          `json:"source,omitempty"`
	Attrs  []attrJSON   `json:"attrs,omitempty"`
	Ops    []recordJSON `json:"ops,omitempty"`
}

// recordToJSON renders a record in its wire form; shared by the WAL frame
// encoder and both snapshot codecs' preserved last record. An OpBatch
// record nests its sub-records under Ops.
func recordToJSON(rec Record) recordJSON {
	j := recordJSON{Op: rec.Kind.String(), Seq: rec.Seq, Adv: rec.Advance, ID: rec.ID, URI: rec.URI, Source: rec.Source}
	for _, a := range rec.Attrs {
		j.Attrs = append(j.Attrs, attrJSON{Name: a.Name, Value: a.Value})
	}
	for _, sub := range rec.Batch {
		j.Ops = append(j.Ops, recordToJSON(sub))
	}
	return j
}

// encodeRecord serializes a record for the WAL.
func encodeRecord(rec Record) ([]byte, error) {
	payload, err := json.Marshal(recordToJSON(rec))
	if err != nil {
		return nil, fmt.Errorf("incremental: encoding journal record: %w", err)
	}
	return payload, nil
}

// decodeRecord parses a WAL frame back into a record.
func decodeRecord(payload []byte) (Record, error) {
	var j recordJSON
	if err := json.Unmarshal(payload, &j); err != nil {
		return Record{}, fmt.Errorf("incremental: decoding journal record: %w", err)
	}
	return recordFromJSON(j)
}

// recordFromJSON converts the wire form back into a record; shared by the
// WAL frame decoder and the snapshot codec's preserved last record.
func recordFromJSON(j recordJSON) (Record, error) {
	rec := Record{Seq: j.Seq, Advance: j.Adv, ID: j.ID, URI: j.URI, Source: j.Source}
	switch j.Op {
	case "insert":
		rec.Kind = OpInsert
	case "update":
		rec.Kind = OpUpdate
	case "delete":
		rec.Kind = OpDelete
	case "reconcile":
		rec.Kind = OpReconcile
	case "batch":
		rec.Kind = OpBatch
		for i, sub := range j.Ops {
			srec, err := recordFromJSON(sub)
			if err != nil {
				return Record{}, fmt.Errorf("incremental: batch sub-record %d: %w", i, err)
			}
			rec.Batch = append(rec.Batch, srec)
		}
	default:
		return Record{}, fmt.Errorf("incremental: journal record has unknown op %q", j.Op)
	}
	for _, a := range j.Attrs {
		rec.Attrs = append(rec.Attrs, entity.Attribute{Name: a.Name, Value: a.Value})
	}
	return rec, nil
}

// walJournal is the WAL-backed journal: records go to fsync'd segment
// files, checkpoints to atomically-renamed snapshot files named after the
// segment replay resumes from.
type walJournal struct {
	log      *wal.Log
	dir      string
	last     wal.Position
	haveLast bool
}

func (j *walJournal) Record(rec Record) error {
	payload, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	pos, err := j.log.Append(payload)
	if err != nil {
		return fmt.Errorf("incremental: journal append: %w", err)
	}
	j.last, j.haveLast = pos, true
	return nil
}

func (j *walJournal) Rollback() error {
	if !j.haveLast {
		return fmt.Errorf("incremental: journal rollback without a recorded operation")
	}
	j.haveLast = false
	if err := j.log.TruncateTo(j.last); err != nil {
		return fmt.Errorf("incremental: journal rollback: %w", err)
	}
	return nil
}

func (j *walJournal) Checkpoint(snapshot []byte) error {
	seq, err := j.log.Rotate()
	if err != nil {
		return fmt.Errorf("incremental: checkpoint rotate: %w", err)
	}
	j.haveLast = false
	if err := wal.WriteFileAtomic(filepath.Join(j.dir, snapshotFile(seq)), snapshot); err != nil {
		return fmt.Errorf("incremental: writing snapshot: %w", err)
	}
	// The snapshot is durable: every record and snapshot before it is dead
	// weight (including any delta chain an older release left behind). A
	// crash between these steps only leaves garbage that the next
	// checkpoint removes; recovery always anchors on the newest snapshot.
	if err := j.log.RemoveSegmentsBefore(seq); err != nil {
		return fmt.Errorf("incremental: pruning segments: %w", err)
	}
	return removeSnapshotsBefore(j.dir, seq)
}

func (j *walJournal) Close() error { return j.log.Close() }

// snapshotFile names the snapshot covering every record before segment seq.
func snapshotFile(seq uint64) string {
	return fmt.Sprintf("snapshot-%016d.snap", seq)
}

// listSnapshots returns the snapshot sequence numbers in dir, ascending.
// Snapshot files follow the WAL's numbered-file naming, so the listing is
// the wal package's.
func listSnapshots(dir string) ([]uint64, error) {
	seqs, err := wal.ListNumberedFiles(dir, "snapshot-", ".snap")
	if err != nil {
		return nil, fmt.Errorf("incremental: %w", err)
	}
	return seqs, nil
}

// removeSnapshotsBefore deletes superseded snapshot files.
func removeSnapshotsBefore(dir string, seq uint64) error {
	seqs, err := listSnapshots(dir)
	if err != nil {
		return err
	}
	for _, s := range seqs {
		if s >= seq {
			break
		}
		if err := os.Remove(filepath.Join(dir, snapshotFile(s))); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("incremental: pruning snapshot %d: %w", s, err)
		}
	}
	return nil
}

// OpenResolver opens a durable streaming resolver backed by a write-ahead
// log in dir, creating the directory on first use. An existing directory is
// recovered: the newest snapshot is restored (its configuration fingerprint
// — kind, blocker, matcher, meta-blocker — must match cfg, or OpenResolver
// fails rather than silently diverge), the WAL tail is replayed through the
// normal apply path, and a torn final record left by a crash mid-append is
// truncated away by the WAL layer. The recovered resolver is
// indistinguishable from one that processed the acknowledged operations
// without interruption: same handles, matches, clusters, blocks and
// counters.
//
// Every subsequent operation is journaled (fsync'd unless
// cfg.Durable.NoSync) before it is applied, and every
// cfg.Durable.SnapshotEvery operations the journal is compacted into a
// fresh snapshot so recovery replays only the tail. Close the resolver to
// release the journal; a resolver that is never closed loses nothing
// beyond, at worst, the single operation a crash interrupts — which its
// caller never saw acknowledged.
func OpenResolver(dir string, cfg Config) (*Resolver, error) {
	r, err := New(cfg)
	if err != nil {
		return nil, err
	}
	// A sharded deployment's root (package sharded) holds per-shard
	// journals in shard-%03d subdirectories; opening it as a single-node
	// directory would start a fresh journal beside them and silently
	// ignore the real state.
	if _, serr := os.Stat(filepath.Join(dir, ShardedManifestName)); serr == nil {
		return nil, fmt.Errorf("incremental: %s is a sharded resolver directory (%s present); open it with the sharded resolver", dir, ShardedManifestName)
	}
	log, err := wal.Open(dir, wal.Options{SegmentBytes: cfg.Durable.SegmentBytes, NoSync: cfg.Durable.NoSync, GroupCommit: cfg.Durable.GroupCommit})
	if err != nil {
		return nil, fmt.Errorf("incremental: opening wal: %w", err)
	}
	ok := false
	defer func() {
		if !ok {
			log.Close()
		}
	}()

	snaps, err := listSnapshots(dir)
	if err != nil {
		return nil, err
	}
	var from uint64
	if len(snaps) > 0 {
		// Restore the newest snapshot — and, in a directory an older
		// release wrote, the delta links chained onto its full anchor.
		tip := snaps[len(snaps)-1]
		full, deltas, err := loadSnapshotChain(dir, tip)
		if err != nil {
			return nil, err
		}
		im, err := DecodeImage(full)
		if err != nil {
			return nil, err
		}
		if err := r.restore(im); err != nil {
			return nil, err
		}
		for i := len(deltas) - 1; i >= 0; i-- {
			if err := r.applyDeltaSnapshot(deltas[i]); err != nil {
				return nil, err
			}
		}
		from = tip
		r.recovery.SnapshotSegment = tip
	}
	replayed, err := log.Replay(from, func(payload []byte) error {
		rec, err := decodeRecord(payload)
		if err != nil {
			return err
		}
		return r.replayRecord(rec)
	})
	if err != nil {
		return nil, fmt.Errorf("incremental: wal replay: %w", err)
	}
	r.recovery.ReplayedRecords = replayed
	r.recovery.Recovered = len(snaps) > 0 || replayed > 0

	r.journal = &walJournal{log: log, dir: dir}
	r.snapEvery = cfg.Durable.SnapshotEvery
	if r.snapEvery == 0 {
		r.snapEvery = DefaultSnapshotEvery
	}
	if r.snapEvery < 0 {
		r.snapEvery = 0
	}
	r.sinceSnap = replayed
	// Checkpoint right away when the directory has no snapshot (first open,
	// or snapshots lost) or the replayed tail already exceeds the cadence —
	// every recovery then anchors on a snapshot, and the configuration
	// fingerprint becomes durable from the first operation on.
	if len(snaps) == 0 || (r.snapEvery > 0 && r.sinceSnap >= r.snapEvery) {
		if err := r.compactLocked(); err != nil {
			return nil, err
		}
	}
	ok = true
	return r, nil
}

// Compact forces a checkpoint now: the resolver's full state is snapshot
// and the journal truncated, independent of the automatic cadence. A no-op
// (with a no-op journal) for in-memory resolvers.
func (r *Resolver) Compact() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.broken != nil {
		return r.broken
	}
	return r.compactLocked()
}

// Close seals the resolver's journal. Reads keep working on the in-memory
// state; mutating operations fail afterwards. Closing an in-memory resolver
// only disables further mutation.
func (r *Resolver) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.broken == errClosed {
		return nil
	}
	r.broken = errClosed
	return r.journal.Close()
}

// Recovery reports what OpenResolver restored; the zero value for resolvers
// built with New or opened on a fresh directory.
func (r *Resolver) Recovery() RecoveryInfo {
	r.rlock()
	defer r.mu.RUnlock()
	return r.recovery
}

// LastRecord returns the most recently applied operation in its journaled,
// replayable form — tracked across restarts (it is part of the snapshot,
// so compaction never loses it). The sharded coordinator uses it to repair
// a whole-process crash that interrupted a fan-out between shards: the
// shard whose journal runs one operation ahead donates the record so the
// others can roll forward to the same point.
func (r *Resolver) LastRecord() (Record, bool) {
	r.rlock()
	defer r.mu.RUnlock()
	if r.lastRecord == nil {
		return Record{}, false
	}
	return *r.lastRecord, true
}

// Ops returns the operations the record carries: the sub-records of an
// OpBatch record, the record itself otherwise (a batch of one is journaled
// bare).
func (rec Record) Ops() []Record {
	if rec.Kind == OpBatch {
		return rec.Batch
	}
	return []Record{rec}
}

// SpanOps reports how many stream operations the record carries. Crash
// repair uses it to size the window a single lost append can open.
func (rec Record) SpanOps() int64 { return int64(len(rec.Ops())) }

var errClosed = fmt.Errorf("incremental: resolver is closed")

// ErrBroken marks a resolver whose journal has diverged from memory — a
// reconcile could not be journaled or retracted, or an admitted operation
// failed mid-apply (which validation makes unreachable). Every further mutation AND every reconciling read fails
// with an error wrapping it (errors.Is(err, ErrBroken)): the in-memory
// state may still be readable, but serving it while the log cannot
// reproduce it would hide the divergence until the next crash made it
// permanent. The durable state on disk stays consistent — it holds exactly
// the journaled prefix — so closing and reopening the directory recovers a
// working resolver at the last acknowledged operation.
var ErrBroken = errors.New("incremental: journal diverged from memory; resolver disabled")

// maybeCompact advances the compaction cadence after a journal record.
// Callers hold r.mu.
func (r *Resolver) maybeCompact() error {
	if r.snapEvery <= 0 {
		return nil
	}
	r.sinceSnap++
	if r.sinceSnap < r.snapEvery {
		return nil
	}
	return r.compactLocked()
}

// compactLocked checkpoints the resolver through the journal: a full
// snapshot of its state. Callers hold r.mu.
func (r *Resolver) compactLocked() error {
	payload, slots, err := r.encodeSnapshot()
	if err != nil {
		return fmt.Errorf("incremental: encoding snapshot: %w", err)
	}
	if err := r.journal.Checkpoint(payload); err != nil {
		return fmt.Errorf("incremental: compaction (the triggering operation is applied and durable): %w", err)
	}
	r.perf.FullSnapshots++
	r.perf.SnapshotSlots += int64(slots)
	r.sinceSnap = 0
	return nil
}

// retractRecord rolls the journal back after a failed reconcile. If the
// rollback itself fails the journal no longer mirrors memory, so the
// resolver refuses every further mutation rather than let the divergence
// reach disk. Callers hold r.mu.
func (r *Resolver) retractRecord() {
	if err := r.journal.Rollback(); err != nil {
		r.broken = fmt.Errorf("%w: journal rollback failed: %v", ErrBroken, err)
	}
}

// replayRecord re-applies one journaled operation during recovery through
// the live apply paths' run splitter (applyRecords), where a direct
// insert's handle gap reproduces burned slots (see burnSlot).
func (r *Resolver) replayRecord(rec Record) error {
	switch rec.Kind {
	case OpReconcile:
		// Re-run the deferred meta-blocking reconcile at the same point of
		// the stream the original read performed it: the evaluated pairs,
		// cached decisions and comparison counts come out identical. During
		// replay the journal is still the no-op one, so this does not
		// re-journal.
		if err := r.reconcile(context.Background()); err != nil {
			return fmt.Errorf("incremental: replaying reconcile: %w", err)
		}
		return nil
	case OpInsert, OpUpdate, OpDelete, OpBatch:
		// One WAL frame holds a whole batch, so recovery sees it all or not
		// at all: a torn final append is truncated away by the WAL layer
		// before replay starts, and a decoded batch replays every sub-record.
		ops := rec.Ops()
		if len(ops) > 0 && ops[0].Seq != 0 {
			// A routed frame (or an older journal's lone routed record).
			if skip, err := r.routedSkip(ops); err != nil || skip != 0 {
				return fmt.Errorf("incremental: journal routed record %d follows %d — the log has a gap", ops[0].Seq, r.lastSeq)
			}
			if err := r.validateBatch(ops, true); err != nil {
				return err
			}
		}
		if i, err := r.applyRecords(ops, true, nil); err != nil {
			return fmt.Errorf("incremental: replaying %s, operation %d: %w", rec.Kind, i, err)
		}
		if rec.Kind == OpBatch {
			cp := rec
			r.lastRecord = &cp
		}
		return nil
	default:
		return fmt.Errorf("incremental: journal record has unknown kind %v", rec.Kind)
	}
}

// burnSlot occupies the next collection slot with a dead placeholder: a
// routed slot-advance insert, or — on replay of an older journal — the
// image of an insert that was journaled, cancelled mid-apply and retracted,
// but had already consumed the slot.
func (r *Resolver) burnSlot() {
	r.coll.MustAdd(&entity.Description{ID: -1})
	r.live = append(r.live, false)
}
