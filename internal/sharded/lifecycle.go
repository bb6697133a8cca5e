// Shard lifecycle and per-shard durability: Open journals every shard to
// its own WAL directory, StopShard hard-stops one shard (the in-process
// kill -9), and RejoinShard bootstraps it back from its own snapshot plus
// WAL tail — no global replay, recovery cost bounded by that shard's tail.
package sharded

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"entityres/internal/entity"
	"entityres/internal/graph"
	"entityres/internal/incremental"
	"entityres/internal/wal"
)

// manifestFile guards a sharded directory's layout: reopening it with a
// different shard count would silently re-partition the key space, so the
// count is pinned on first open. The name is shared with the single-node
// resolver (incremental.ShardedManifestName) so each deployment form
// recognizes — and refuses — the other's directories.
const manifestFile = incremental.ShardedManifestName

// manifestFormat versions the manifest layout.
const manifestFormat = 1

type manifestJSON struct {
	Format int `json:"format"`
	Shards int `json:"shards"`
}

// errClosed marks a closed sharded resolver.
var errClosed = fmt.Errorf("sharded: resolver is closed")

// shardDirName names shard i's WAL directory under the sharded root.
func shardDirName(i int) string { return fmt.Sprintf("shard-%03d", i) }

// checkManifest pins the shard count in dir, creating the manifest on
// first use and refusing a mismatching reopen.
func checkManifest(dir string, shards int) error {
	path := filepath.Join(dir, manifestFile)
	payload, err := wal.ReadFileFramed(path)
	switch {
	case err == nil:
		var m manifestJSON
		if jerr := json.Unmarshal(payload, &m); jerr != nil {
			return fmt.Errorf("sharded: decoding %s: %w", manifestFile, jerr)
		}
		if m.Format != manifestFormat {
			return fmt.Errorf("sharded: manifest format %d is not supported (want %d)", m.Format, manifestFormat)
		}
		if m.Shards != shards {
			return fmt.Errorf("sharded: directory was created with %d shards, resolver configured with %d — the key partition would silently change", m.Shards, shards)
		}
		return nil
	case errors.Is(err, os.ErrNotExist):
		payload, merr := json.Marshal(manifestJSON{Format: manifestFormat, Shards: shards})
		if merr != nil {
			return fmt.Errorf("sharded: %w", merr)
		}
		if werr := wal.WriteFileAtomic(path, payload); werr != nil {
			return fmt.Errorf("sharded: writing %s: %w", manifestFile, werr)
		}
		return nil
	default:
		return fmt.Errorf("sharded: reading %s: %w", manifestFile, err)
	}
}

// Open opens a durable sharded resolver rooted at dir, creating the
// directory tree on first use: shard i journals every operation to its own
// write-ahead log under dir/shard-%03d (group-commit fsync batching,
// snapshot compaction per incremental.OpenResolver) so each shard can be
// crash-recovered — or rejoined after a hard stop — from its own snapshot
// plus WAL tail alone.
//
// An existing directory is recovered: every shard restores independently,
// a whole-process crash that interrupted a fan-out (the one in-flight
// operation journaled on some shards but not others) is repaired by
// rolling the behind shards forward with the donated record (see
// repairFanoutTear), the coordinator rebuilds its replica (slots,
// liveness, URIs, match graph, counters) from the recovered shards, and
// the shards are verified to agree on the acknowledged operation counts
// before any new operation is accepted. Reopening with a different shard
// count fails via the pinned
// manifest rather than silently re-partitioning the key space. With live
// meta-blocking, the coordinator's decision cache and reconcile comparison
// counter — state the shards never see, since they never run the matcher —
// are restored from the coordinator journal (dir/coordinator; see
// coordjournal.go), so the cumulative Comparisons counter continues
// restart-exact. Directories created before the coordinator journal
// existed reopen with a fresh cache and the counter restarting from the
// shard-side count, the old behavior.
func Open(dir string, cfg Config) (*Resolver, error) {
	r, err := newCoordinator(cfg)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sharded: %w", err)
	}
	// A root-level WAL means dir already serves a SINGLE-NODE resolver;
	// laying shard directories beside it would silently ignore that
	// journal and restart the stream from nothing.
	if segs, serr := wal.ListNumberedFiles(dir, "wal-", ".seg"); serr == nil && len(segs) > 0 {
		return nil, fmt.Errorf("sharded: %s holds a single-node resolver journal; open it with the single-node resolver or choose a fresh directory", dir)
	}
	n := cfg.normShards()
	if err := checkManifest(dir, n); err != nil {
		return nil, err
	}
	r.dir = dir
	ok := false
	defer func() {
		if !ok {
			for _, sh := range r.shards {
				sh.res.Close()
			}
		}
	}()
	for i := 0; i < n; i++ {
		scfg, lens := cfg.shardConfig(i)
		sres, err := incremental.OpenResolver(filepath.Join(dir, shardDirName(i)), scfg)
		if err != nil {
			return nil, fmt.Errorf("sharded: opening shard %d: %w", i, err)
		}
		r.shards = append(r.shards, &shard{res: sres, lens: lens})
		r.recovery = append(r.recovery, sres.Recovery())
	}
	if err := r.repairFanoutTear(); err != nil {
		return nil, err
	}
	if err := r.rebuildFromShards(); err != nil {
		return nil, err
	}
	if cfg.Meta != nil {
		if err := r.openCoordJournal(); err != nil {
			return nil, err
		}
	}
	ok = true
	return r, nil
}

// repairFanoutTear rolls the shards forward to a common point after a
// whole-process crash that interrupted a fan-out: the coordinator
// serializes operations and every shard journals each one before applying
// it, so a crash can leave the shard journals apart by AT MOST the single
// in-flight record — one operation, or one whole batch (shard-side
// ApplyBatch appends atomically, so a shard holds all of a batch or none
// of it) — durable on the shards whose appends completed, absent from the
// rest. Because journal records carry the operation's full payload, any
// ahead shard can donate its last applied record (preserved across
// snapshot compaction, so even a crash landing exactly on a compaction
// boundary keeps a donor) and the behind shards re-apply it through their
// normal journal-then-apply path, converging every journal on the
// acknowledged-plus-in-flight history (roll-forward: the record was
// durable somewhere, so it is completed, never discarded). Divergence
// wider than the donated record cannot come from a fan-out tear and is
// refused with the shards untouched.
func (r *Resolver) repairFanoutTear() error {
	totals := make([]int64, len(r.shards))
	var lo, hi int64
	for i, sh := range r.shards {
		c := sh.res.Counters()
		totals[i] = c.Inserts + c.Updates + c.Deletes
		if i == 0 || totals[i] < lo {
			lo = totals[i]
		}
		if totals[i] > hi {
			hi = totals[i]
		}
	}
	if hi == lo {
		return nil
	}
	var rec incremental.Record
	donor := -1
	for i, sh := range r.shards {
		if totals[i] != hi {
			continue
		}
		if last, okRec := sh.res.LastRecord(); okRec && last.Kind != incremental.OpReconcile {
			rec, donor = last, i
			break
		}
	}
	if donor < 0 {
		if hi-lo > 1 {
			return fmt.Errorf("sharded: shard journals diverge by %d operations; a fan-out tear is at most one in-flight record — the directory was modified outside the coordinator", hi-lo)
		}
		return fmt.Errorf("sharded: shard journals diverge by one operation but no ahead shard retains its record; cannot roll forward")
	}
	if hi-lo != rec.SpanOps() {
		return fmt.Errorf("sharded: shard journals diverge by %d operations but the in-flight record spans %d; a fan-out tear is exactly one record — the directory was modified outside the coordinator", hi-lo, rec.SpanOps())
	}
	for i, sh := range r.shards {
		if totals[i] == hi {
			continue
		}
		if totals[i] != lo {
			return fmt.Errorf("sharded: shard %d sits %d operations into the in-flight record; shard appends are atomic — the directory was modified outside the coordinator", i, totals[i]-lo)
		}
		if err := r.applyRecordTo(sh.res, rec); err != nil {
			return fmt.Errorf("sharded: rolling shard %d forward to the in-flight record: %w", i, err)
		}
		r.rolledForward++
	}
	return nil
}

// applyRecordTo re-applies a donated journal record through a shard's
// normal apply path, so the shard journals it too and the logs converge.
// The behind shard replans the donated operations against its own replica
// (a private copy — planning writes handles back) and journals them as one
// append, exactly like the interrupted fan-out would have.
func (r *Resolver) applyRecordTo(sr *incremental.Resolver, rec incremental.Record) error {
	ops := rec.Ops()
	cp := append([]incremental.Record(nil), ops...)
	if err := sr.ApplyBatch(fanoutCtx, cp); err != nil {
		return err
	}
	for i := range cp {
		if cp[i].ID != ops[i].ID {
			return fmt.Errorf("donated record %d landed at handle %d, the donated record says %d", i, cp[i].ID, ops[i].ID)
		}
	}
	return nil
}

// RolledForward reports how many shards Open rolled forward to complete an
// operation a whole-process crash left applied on only some shards.
func (r *Resolver) RolledForward() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.rolledForward
}

// rebuildFromShards reconstructs the coordinator replica from the
// recovered shard state: slots and liveness from shard 0 (all shards hold
// identical replicas — verified through the operation counters), the
// global match graph as the union of the shard-local edges, and the
// deferred-reconcile flag under meta-blocking.
func (r *Resolver) rebuildFromShards() error {
	first := r.shards[0].res
	var rebuildErr error
	first.EachSlot(func(id entity.ID, live bool, d *entity.Description) bool {
		cp := &entity.Description{ID: -1}
		if live {
			cp = d.Clone()
			cp.ID = -1
		}
		slot, err := r.coll.Add(cp)
		if err != nil {
			rebuildErr = fmt.Errorf("sharded: rebuilding slot %d: %w", id, err)
			return false
		}
		if slot != id {
			rebuildErr = fmt.Errorf("sharded: slot %d rebuilt at handle %d", id, slot)
			return false
		}
		r.live = append(r.live, live)
		if !live {
			return true
		}
		r.liveCount++
		if cp.URI != "" {
			if _, dup := r.byURI[cp.URI]; dup {
				rebuildErr = fmt.Errorf("sharded: recovered state lists URI %q twice", cp.URI)
				return false
			}
			r.byURI[cp.URI] = id
		}
		return true
	})
	if rebuildErr != nil {
		return rebuildErr
	}
	c0 := first.Counters()
	r.stats.Inserts, r.stats.Updates, r.stats.Deletes = c0.Inserts, c0.Updates, c0.Deletes
	for i, sh := range r.shards[1:] {
		if c := sh.res.Counters(); c.Inserts != c0.Inserts || c.Updates != c0.Updates || c.Deletes != c0.Deletes || c.Live != c0.Live {
			return fmt.Errorf("sharded: shards diverged on reopen: shard 0 acknowledges %d/%d/%d ops (%d live), shard %d %d/%d/%d (%d live)",
				c0.Inserts, c0.Updates, c0.Deletes, c0.Live, i+1, c.Inserts, c.Updates, c.Deletes, c.Live)
		}
	}
	if r.cfg.Meta != nil {
		r.metaDirty = r.stats.Inserts > 0
		return nil
	}
	for _, sh := range r.shards {
		for _, e := range sh.res.MatchEdges() {
			r.dyn.AddEdge(e.A, e.B, e.Weight)
		}
	}
	return nil
}

// Recovery reports what Open restored, one entry per shard (nil for
// resolvers built with New or opened on a fresh directory tree).
func (r *Resolver) Recovery() []incremental.RecoveryInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]incremental.RecoveryInfo, len(r.recovery))
	copy(out, r.recovery)
	return out
}

// Perf sums the cumulative work counters over every shard plus the
// coordinator's own (fan-outs issued, coordinator-journal appends). Like
// the single-node accessor it never reconciles.
func (r *Resolver) Perf() incremental.PerfCounters {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := r.perf
	for _, p := range fanRead(r.shards, func(sr *incremental.Resolver) incremental.PerfCounters {
		return sr.Perf()
	}) {
		out.Add(p)
	}
	return out
}

// Recovered reports whether Open found existing state in any shard.
func (r *Resolver) Recovered() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, rec := range r.recovery {
		if rec.Recovered {
			return true
		}
	}
	return false
}

// StopShard hard-stops shard i — the in-process stand-in for a shard
// process crash: the shard's journal file handles (and WAL directory lock)
// are dropped with no checkpoint and no graceful close, leaving its
// on-disk state exactly what the acknowledged operations journaled.
// Mutating operations fail while any shard is down; reads keep serving
// from the coordinator's replica. Only durable resolvers (Open) can stop
// shards: an in-memory shard would have nothing to rejoin from.
func (r *Resolver) StopShard(i int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.broken != nil {
		return r.broken
	}
	if r.dir == "" {
		return fmt.Errorf("sharded: only durable resolvers (Open) can stop and rejoin shards")
	}
	if i < 0 || i >= len(r.shards) {
		return fmt.Errorf("sharded: no shard %d (have %d)", i, len(r.shards))
	}
	if r.shards[i].down {
		return fmt.Errorf("sharded: shard %d is already stopped", i)
	}
	r.shards[i].res.Abandon()
	r.shards[i].down = true
	return nil
}

// RejoinShard bootstraps a stopped shard back into the resolver from its
// own snapshot plus WAL tail (incremental.OpenResolver): no other shard is
// touched and nothing is replayed globally — the recovery cost is bounded
// by the rejoining shard's journal tail, reported in the returned
// RecoveryInfo. The recovered shard must acknowledge exactly the
// operations the coordinator does, or the rejoin is refused.
func (r *Resolver) RejoinShard(i int) (incremental.RecoveryInfo, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.broken != nil {
		return incremental.RecoveryInfo{}, r.broken
	}
	if r.dir == "" {
		return incremental.RecoveryInfo{}, fmt.Errorf("sharded: only durable resolvers (Open) can stop and rejoin shards")
	}
	if i < 0 || i >= len(r.shards) {
		return incremental.RecoveryInfo{}, fmt.Errorf("sharded: no shard %d (have %d)", i, len(r.shards))
	}
	if !r.shards[i].down {
		return incremental.RecoveryInfo{}, fmt.Errorf("sharded: shard %d is not stopped", i)
	}
	scfg, lens := r.cfg.shardConfig(i)
	sres, err := incremental.OpenResolver(filepath.Join(r.dir, shardDirName(i)), scfg)
	if err != nil {
		return incremental.RecoveryInfo{}, fmt.Errorf("sharded: rejoining shard %d: %w", i, err)
	}
	if c := sres.Counters(); c.Inserts != r.stats.Inserts || c.Updates != r.stats.Updates || c.Deletes != r.stats.Deletes || c.Live != r.liveCount {
		sres.Close()
		return incremental.RecoveryInfo{}, fmt.Errorf("sharded: shard %d recovered %d/%d/%d ops (%d live), coordinator acknowledges %d/%d/%d (%d live)",
			i, c.Inserts, c.Updates, c.Deletes, c.Live, r.stats.Inserts, r.stats.Updates, r.stats.Deletes, r.liveCount)
	}
	r.shards[i].res = sres
	r.shards[i].lens = lens
	r.shards[i].down = false
	return sres.Recovery(), nil
}

// MatchEdgesOfShard returns shard i's local match edges — the slice of the
// global match graph that shard discovered. Diagnostic: the union over
// shards equals Matches.
func (r *Resolver) MatchEdgesOfShard(i int) []graph.Edge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i < 0 || i >= len(r.shards) {
		return nil
	}
	return r.shards[i].res.MatchEdges()
}

// Close seals every shard's journal. Reads keep working on the
// coordinator's in-memory state; mutating operations fail afterwards.
func (r *Resolver) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.broken == errClosed {
		return nil
	}
	r.broken = errClosed
	var first error
	for i, sh := range r.shards {
		if sh.down {
			continue
		}
		if err := sh.res.Close(); err != nil && first == nil {
			first = fmt.Errorf("sharded: closing shard %d: %w", i, err)
		}
	}
	if r.coordJ != nil {
		if err := r.coordJ.log.Close(); err != nil && first == nil {
			first = fmt.Errorf("sharded: closing coordinator journal: %w", err)
		}
	}
	return first
}

// Abandon hard-stops every shard at once — the in-process stand-in for a
// whole-deployment crash, for the recovery test suites: on-disk state is
// exactly what each shard's acknowledged operations journaled.
func (r *Resolver) Abandon() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, sh := range r.shards {
		if !sh.down {
			sh.res.Abandon()
			sh.down = true
		}
	}
	if r.coordJ != nil {
		// Like the shard journals, only the file handles are dropped — the
		// on-disk journal is exactly what the acknowledged records wrote.
		r.coordJ.log.Close()
	}
	r.broken = errClosed
}
