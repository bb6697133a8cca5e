// The coordinator journal: the durable half of the coordinator's deferred
// meta-blocking state, closing the PR 5 gap where a reopened deployment's
// cumulative Comparisons counter restarted from the shard-side count.
//
// Under live meta-blocking the shards never run the matcher — the
// coordinator evaluates the kept pairs and caches the decisions — so
// nothing about those evaluations reaches the shard WALs. This journal
// (its own wal.Log under dir/coordinator) records exactly the two events
// that state depends on, in operation order:
//
//   - a mutation record per acknowledged batch (the handles it touched;
//     "mut" for a batch of one), replayed as decision-cache invalidations —
//     an update or delete makes every cached decision involving that
//     handle stale;
//   - a reconcile record per effective reconcile: the matcher-invocation
//     count and the freshly evaluated decisions (incremental.Decision),
//     replayed as cache inserts and a counter increment.
//
// Replaying the journal therefore rebuilds the decision cache and the
// reconcile comparison counter exactly as an uninterrupted coordinator
// would hold them, and the next reconcile evaluates only never-evaluated
// pairs — Comparisons continues restart-exact.
//
// Crash windows. A reconcile that completed in memory but not in the
// journal loses its decisions AND its counter increment together; the
// reopened coordinator re-evaluates those pairs and re-earns the same
// increment — the total is unchanged. A mutation acknowledged by the
// shards whose journal record was lost is detected on reopen (the journal
// runs exactly one operation behind the shard count — operations are
// serialized) and repaired with the same donated record the fan-out-tear
// repair uses, so the stale invalidation is never missed. Larger
// divergence means the directory was modified outside the coordinator and
// is refused. A directory created before the coordinator journal existed
// (no journal state at all, operations on the shards) degrades to the old
// behavior: fresh cache, counter restarting from the shard-side count.
package sharded

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"entityres/internal/entity"
	"entityres/internal/incremental"
	"entityres/internal/wal"
)

// coordDirName is the coordinator journal's directory under the sharded
// root, beside the shard-%03d directories.
const coordDirName = "coordinator"

// coordSnapshotFormat versions the coordinator snapshot layout.
const coordSnapshotFormat = 1

// coordRecordJSON is one coordinator journal record: a mutation ("mut",
// invalidating ID's cached decisions), a batch ("batch", one append
// invalidating every touched handle of an ApplyBatch — the coordinator's
// half of the batch write-path amortization) or a reconcile ("rec", adding
// N comparisons and the fresh decisions).
type coordRecordJSON struct {
	Op        string         `json:"op"`
	ID        entity.ID      `json:"id,omitempty"`
	IDs       []entity.ID    `json:"ids,omitempty"`
	N         int64          `json:"n,omitempty"`
	Decisions []decisionJSON `json:"decisions,omitempty"`
}

type decisionJSON struct {
	A     entity.ID `json:"a"`
	B     entity.ID `json:"b"`
	Match bool      `json:"m,omitempty"`
}

// coordSnapshotJSON is the compacted form: the full decision cache and
// counters as of the snapshot, so replay only walks the tail.
type coordSnapshotJSON struct {
	Format int `json:"format"`
	// Ops counts the operations journaled up to the snapshot; reopen
	// compares it (plus the replayed tail) against the shard-acknowledged
	// count to detect the one-operation crash window.
	Ops int64 `json:"ops"`
	// Comparisons is the coordinator's reconcile comparison counter.
	Comparisons int64          `json:"comparisons"`
	Decisions   []decisionJSON `json:"decisions,omitempty"`
}

// coordJournal is the coordinator's write-ahead journal handle plus its
// compaction cadence.
type coordJournal struct {
	log       *wal.Log
	dir       string
	snapEvery int
	sinceSnap int
}

// appendCoord journals one coordinator record and advances the compaction
// cadence; on failure the resolver is poisoned by the caller. Callers hold
// r.mu.
func (r *Resolver) appendCoord(rec coordRecordJSON) error {
	if r.coordJ == nil {
		return nil
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("sharded: encoding coordinator record: %w", err)
	}
	if _, err := r.coordJ.log.Append(payload); err != nil {
		return fmt.Errorf("sharded: coordinator journal append: %w", err)
	}
	r.perf.JournalAppends++
	r.coordJ.sinceSnap++
	if r.coordJ.snapEvery > 0 && r.coordJ.sinceSnap >= r.coordJ.snapEvery {
		return r.compactCoord()
	}
	return nil
}

// noteBatch journals an acknowledged batch's handles as ONE append — the
// coordinator-journal counterpart of the shards' single batch record. A
// batch of one is journaled as a "mut" record, the per-op shape. The record
// is appended after the shard fan-out succeeds, while the coordinator
// still holds the operation lock, so the journal and the shard logs agree
// on the operation order; a crash between the two leaves the journal
// exactly one record behind, which reopen repairs (see openCoordJournal).
// A journal failure poisons the resolver — the disk can no longer
// reproduce the cache. Callers hold r.mu.
func (r *Resolver) noteBatch(ids []entity.ID) {
	if r.coordJ == nil || r.broken != nil {
		return
	}
	r.coordOps += int64(len(ids))
	if err := r.appendCoord(mutationRecord(ids)); err != nil {
		r.broken = fmt.Errorf("sharded: coordinator journal failed, resolver disabled: %v", err)
	}
}

// mutationRecord renders the handles of one acknowledged batch as its
// coordinator-journal record.
func mutationRecord(ids []entity.ID) coordRecordJSON {
	if len(ids) == 1 {
		return coordRecordJSON{Op: "mut", ID: ids[0]}
	}
	return coordRecordJSON{Op: "batch", IDs: ids}
}

// noteReconcile journals an effective reconcile's comparison count and
// fresh decisions. Callers hold r.mu.
func (r *Resolver) noteReconcile(n int64, decided []incremental.Decision) {
	if r.coordJ == nil || r.broken != nil {
		return
	}
	rec := coordRecordJSON{Op: "rec", N: n}
	for _, d := range decided {
		rec.Decisions = append(rec.Decisions, decisionJSON{A: d.A, B: d.B, Match: d.Match})
	}
	if err := r.appendCoord(rec); err != nil {
		r.broken = fmt.Errorf("sharded: coordinator journal failed, resolver disabled: %v", err)
	}
}

// compactCoord checkpoints the coordinator journal: rotate, snapshot the
// full decision cache and counters, prune covered segments and superseded
// snapshots — the walJournal checkpoint dance over the coordinator's
// state. Callers hold r.mu.
func (r *Resolver) compactCoord() error {
	s := coordSnapshotJSON{Format: coordSnapshotFormat, Ops: r.coordOps, Comparisons: r.metaComparisons}
	r.simCache.Each(func(a, b entity.ID, sim bool) bool {
		s.Decisions = append(s.Decisions, decisionJSON{A: a, B: b, Match: sim})
		return true
	})
	sortDecisions(s.Decisions)
	payload, err := json.Marshal(&s)
	if err != nil {
		return fmt.Errorf("sharded: encoding coordinator snapshot: %w", err)
	}
	seq, err := r.coordJ.log.Rotate()
	if err != nil {
		return fmt.Errorf("sharded: coordinator checkpoint rotate: %w", err)
	}
	if err := wal.WriteFileAtomic(filepath.Join(r.coordJ.dir, coordSnapshotFile(seq)), payload); err != nil {
		return fmt.Errorf("sharded: writing coordinator snapshot: %w", err)
	}
	if err := r.coordJ.log.RemoveSegmentsBefore(seq); err != nil {
		return fmt.Errorf("sharded: pruning coordinator segments: %w", err)
	}
	if err := removeCoordSnapshotsBefore(r.coordJ.dir, seq); err != nil {
		return err
	}
	r.coordJ.sinceSnap = 0
	return nil
}

// sortDecisions orders a decision dump by (A, B) for a deterministic
// snapshot layout.
func sortDecisions(ds []decisionJSON) {
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].A != ds[j].A {
			return ds[i].A < ds[j].A
		}
		return ds[i].B < ds[j].B
	})
}

// coordSnapshotFile names the snapshot covering every record before
// segment seq, mirroring the shard journals' naming.
func coordSnapshotFile(seq uint64) string {
	return fmt.Sprintf("snapshot-%016d.snap", seq)
}

func removeCoordSnapshotsBefore(dir string, seq uint64) error {
	seqs, err := wal.ListNumberedFiles(dir, "snapshot-", ".snap")
	if err != nil {
		return fmt.Errorf("sharded: %w", err)
	}
	for _, s := range seqs {
		if s >= seq {
			break
		}
		if err := os.Remove(filepath.Join(dir, coordSnapshotFile(s))); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("sharded: pruning coordinator snapshot %d: %w", s, err)
		}
	}
	return nil
}

// openCoordJournal opens (or creates) the coordinator journal under the
// sharded root, restores the newest snapshot, replays the tail, and
// repairs the one-operation crash window against the shard-acknowledged
// operation count. Called by Open after the shard replica is rebuilt;
// meta-blocking only — without it the coordinator holds no undurable
// state. Callers hold no lock (the resolver is not yet published).
func (r *Resolver) openCoordJournal() error {
	dir := filepath.Join(r.dir, coordDirName)
	log, err := wal.Open(dir, wal.Options{
		SegmentBytes: r.cfg.Durable.SegmentBytes,
		NoSync:       r.cfg.Durable.NoSync,
	})
	if err != nil {
		return fmt.Errorf("sharded: opening coordinator journal: %w", err)
	}
	ok := false
	defer func() {
		if !ok {
			log.Close()
		}
	}()

	snapEvery := r.cfg.Durable.SnapshotEvery
	if snapEvery == 0 {
		snapEvery = incremental.DefaultSnapshotEvery
	}
	if snapEvery < 0 {
		snapEvery = 0
	}
	cj := &coordJournal{log: log, dir: dir, snapEvery: snapEvery}

	snaps, err := wal.ListNumberedFiles(dir, "snapshot-", ".snap")
	if err != nil {
		return fmt.Errorf("sharded: %w", err)
	}
	var from uint64
	if len(snaps) > 0 {
		seq := snaps[len(snaps)-1]
		payload, err := wal.ReadFileFramed(filepath.Join(dir, coordSnapshotFile(seq)))
		if err != nil {
			return fmt.Errorf("sharded: reading coordinator snapshot %d: %w", seq, err)
		}
		var s coordSnapshotJSON
		if err := json.Unmarshal(payload, &s); err != nil {
			return fmt.Errorf("sharded: decoding coordinator snapshot: %w", err)
		}
		if s.Format != coordSnapshotFormat {
			return fmt.Errorf("sharded: coordinator snapshot format %d is not supported (want %d)", s.Format, coordSnapshotFormat)
		}
		r.coordOps = s.Ops
		r.metaComparisons = s.Comparisons
		for _, d := range s.Decisions {
			r.simCache.Set(d.A, d.B, d.Match)
		}
		from = seq
	}
	replayed, err := log.Replay(from, func(payload []byte) error {
		var rec coordRecordJSON
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("decoding record: %w", err)
		}
		switch rec.Op {
		case "mut":
			r.simCache.Invalidate(rec.ID)
			r.coordOps++
		case "batch":
			for _, id := range rec.IDs {
				r.simCache.Invalidate(id)
			}
			r.coordOps += int64(len(rec.IDs))
		case "rec":
			r.metaComparisons += rec.N
			for _, d := range rec.Decisions {
				r.simCache.Set(d.A, d.B, d.Match)
			}
		default:
			return fmt.Errorf("unknown op %q", rec.Op)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("sharded: coordinator journal replay: %w", err)
	}
	cj.sinceSnap = replayed
	r.coordJ = cj

	// Reconcile the journal against the shard-acknowledged operation count.
	shardOps := r.stats.Inserts + r.stats.Updates + r.stats.Deletes
	switch {
	case r.coordOps == shardOps:
		// Exact: the restored cache and counter are what an uninterrupted
		// coordinator holds.
	case r.coordOps == 0 && len(snaps) == 0 && replayed == 0 && shardOps > 0:
		// A directory from before the coordinator journal existed: no state
		// to restore. The cache starts fresh and the Comparisons counter
		// restarts from the shard-side count — the pre-journal behavior.
	case r.coordOps < shardOps:
		// The crash window: one operation OR one batch acknowledged by every
		// shard whose coordinator-journal record was lost (operations are
		// serialized, and a batch is one append on both sides, so the gap is
		// at most one record's worth of operations). The touched handles come
		// from the same donated record the fan-out-tear repair relies on;
		// invalidating them now (and journaling the repair) reproduces what
		// the lost record would have done.
		last, okRec := r.shards[0].res.LastRecord()
		if !okRec {
			return fmt.Errorf("sharded: coordinator journal is %d operations behind the shards and no shard retains its record; cannot repair", shardOps-r.coordOps)
		}
		ops := last.Ops()
		if gap := shardOps - r.coordOps; gap != int64(len(ops)) {
			return fmt.Errorf("sharded: coordinator journal is %d operations behind the shards but the last shard record spans %d — the directory was modified outside the coordinator", gap, len(ops))
		}
		ids := make([]entity.ID, len(ops))
		for i := range ops {
			ids[i] = ops[i].ID
			r.simCache.Invalidate(ids[i])
		}
		r.coordOps += int64(len(ids))
		if err := r.appendCoord(mutationRecord(ids)); err != nil {
			return err
		}
	default:
		return fmt.Errorf("sharded: coordinator journal acknowledges %d operations, shards %d — the directory was modified outside the coordinator", r.coordOps, shardOps)
	}

	// Anchor fresh directories (and over-long tails) on a snapshot, like the
	// shard journals do.
	if len(snaps) == 0 || (cj.snapEvery > 0 && cj.sinceSnap >= cj.snapEvery) {
		if err := r.compactCoord(); err != nil {
			return err
		}
	}
	ok = true
	return nil
}
