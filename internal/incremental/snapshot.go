package incremental

import (
	"encoding/json"
	"fmt"
	"sort"

	"entityres/internal/blocking"
	"entityres/internal/entity"
	"entityres/internal/graph"
	"entityres/internal/metablocking"
)

// The resolver snapshot codec: the full serialized state a compaction
// checkpoint writes and crash recovery restores. The snapshot stores
// everything recovery would otherwise have to recompute —
//
//   - every collection slot in handle order (dead slots as placeholders, so
//     recovered handles equal the original run's), with each live
//     description's attributes AND its indexed blocking keys, so restore
//     never re-runs the blocker's tokenization;
//   - the match graph's edges (graph.Dynamic's snapshot codec);
//   - with meta-blocking, the weighted blocking graph's co-occurrence
//     statistics (metablocking's snapshot codec — far cheaper to reload
//     than to re-derive from posting lists), the cached matcher decisions
//     (so recovered reconciles re-evaluate exactly the pairs an
//     uninterrupted resolver would, keeping comparison counters bit-exact),
//     the last pruning result and the deferred-work flag;
//   - the operation and comparison counters.
//
// A configuration fingerprint (kind, blocker, matcher, meta-blocker names)
// guards restore: state written under one configuration refuses to load
// under another instead of silently diverging from the differential
// contract.

// snapshotFormat versions the snapshot layout.
const snapshotFormat = 1

type snapshotJSON struct {
	Format  int    `json:"format"`
	Kind    int    `json:"kind"`
	Blocker string `json:"blocker"`
	Matcher string `json:"matcher"`
	Meta    string `json:"meta,omitempty"`

	Slots   []slotJSON     `json:"slots,omitempty"`
	Stats   statsJSON      `json:"stats"`
	Matches [][2]entity.ID `json:"matches,omitempty"`
	// LastRecord is the most recently applied operation, preserved across
	// compaction so a sharded fan-out-tear donor (Resolver.LastRecord) can
	// always produce it even when the WAL tail is empty.
	LastRecord *recordJSON `json:"last_record,omitempty"`
	// LastSeq is the acknowledged routed-stream sequence number (routed.go);
	// 0 for resolvers fed through the direct methods.
	LastSeq uint64 `json:"last_seq,omitempty"`

	Weighted  *metablocking.WeightedGraphSnapshot `json:"weighted,omitempty"`
	SimCache  []simCacheJSON                      `json:"sim_cache,omitempty"`
	LastKept  []keptJSON                          `json:"last_kept,omitempty"`
	MetaDirty bool                                `json:"meta_dirty,omitempty"`
}

// slotJSON is one collection slot in handle order. Dead slots (deleted
// descriptions, burned inserts) serialize as the zero value: their content
// is unobservable, only the handle they occupy matters.
type slotJSON struct {
	Live   bool       `json:"live,omitempty"`
	URI    string     `json:"uri,omitempty"`
	Source int        `json:"source,omitempty"`
	Attrs  []attrJSON `json:"attrs,omitempty"`
	// Keys is the slot's distinct sorted blocking key set, exactly as
	// indexed — restore feeds it straight back into the block index.
	Keys []string `json:"keys,omitempty"`
}

type statsJSON struct {
	Inserts     int64 `json:"inserts"`
	Updates     int64 `json:"updates"`
	Deletes     int64 `json:"deletes"`
	Comparisons int64 `json:"comparisons"`
}

type simCacheJSON struct {
	A     entity.ID `json:"a"`
	B     entity.ID `json:"b"`
	Match bool      `json:"match,omitempty"`
}

type keptJSON struct {
	A entity.ID `json:"a"`
	B entity.ID `json:"b"`
	W float64   `json:"w"`
}

// Abandon hard-stops the resolver, simulating a process crash: the
// journal's file handles — and with them the WAL directory lock, which the
// kernel would release when a crashed process exits — are dropped with
// none of the graceful shutdown work (no checkpoint, no reconcile, no
// final compaction). The on-disk state is exactly what the journaled
// operations left there, which is what crash recovery must reopen from.
// It is the kill -9 of the shard lifecycle: sharded.Resolver.StopShard
// hard-stops a shard with it, and the crash test suites reopen abandoned
// directories with OpenResolver. Abandoning an in-memory resolver only
// disables further mutation.
func (r *Resolver) Abandon() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if j, ok := r.journal.(*walJournal); ok {
		// Close releases the fds and the flock without writing any record;
		// the fsync it performs only hardens bytes the journal already
		// acknowledged, so the logical file content is untouched.
		j.log.Close()
	}
	r.broken = errClosed
}

// fingerprintMeta renders the configured meta-blocker for the snapshot
// fingerprint ("" without one).
func (r *Resolver) fingerprintMeta() string {
	if r.cfg.Meta == nil {
		return ""
	}
	return r.cfg.Meta.Name()
}

// encodeSnapshot serializes the resolver's full state. It returns the
// payload plus the serialized slot and weighted-pair counts (the
// compaction-cost counters). Callers hold r.mu.
func (r *Resolver) encodeSnapshot() ([]byte, int, int, error) {
	s := snapshotJSON{
		Format:  snapshotFormat,
		Kind:    int(r.cfg.Kind),
		Blocker: r.cfg.Blocker.Name(),
		Matcher: r.cfg.Matcher.Name(),
		Meta:    r.fingerprintMeta(),
		Stats: statsJSON{
			Inserts:     r.stats.Inserts,
			Updates:     r.stats.Updates,
			Deletes:     r.stats.Deletes,
			Comparisons: r.stats.Comparisons,
		},
	}
	for _, d := range r.coll.All() {
		sl := slotJSON{Live: r.live[d.ID]}
		if sl.Live {
			sl.URI, sl.Source = d.URI, d.Source
			for _, a := range d.Attrs {
				sl.Attrs = append(sl.Attrs, attrJSON{Name: a.Name, Value: a.Value})
			}
			sl.Keys = r.blocks.Keys(d.ID)
		}
		s.Slots = append(s.Slots, sl)
	}
	for _, e := range r.dyn.SnapshotEdges() {
		s.Matches = append(s.Matches, [2]entity.ID{e.A, e.B})
	}
	s.LastSeq = r.lastSeq
	if r.lastRecord != nil {
		j := recordToJSON(*r.lastRecord)
		s.LastRecord = &j
	}
	if r.weighted != nil {
		s.Weighted = r.weighted.Snapshot()
		s.SimCache = encodeSimCache(r.simCache)
		for _, e := range r.lastKept {
			s.LastKept = append(s.LastKept, keptJSON{A: e.A, B: e.B, W: e.Weight})
		}
		s.MetaDirty = r.metaDirty
	}
	payload, err := json.Marshal(&s)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("incremental: %w", err)
	}
	pairs := 0
	if s.Weighted != nil {
		pairs = len(s.Weighted.Pairs)
	}
	return payload, len(s.Slots), pairs, nil
}

// encodeSimCache flattens the bidirectional decision cache into canonical
// (A < B) entries, sorted for a deterministic layout.
func encodeSimCache(cache *DecisionCache) []simCacheJSON {
	var out []simCacheJSON
	cache.Each(func(a, b entity.ID, sim bool) bool {
		out = append(out, simCacheJSON{A: a, B: b, Match: sim})
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// restoreSnapshot loads a full snapshot into a freshly-constructed
// resolver. Callers need not hold r.mu (the resolver is not yet published).
func (r *Resolver) restoreSnapshot(payload []byte) error {
	var s snapshotJSON
	if err := json.Unmarshal(payload, &s); err != nil {
		return fmt.Errorf("incremental: decoding snapshot: %w", err)
	}
	if s.Format != snapshotFormat {
		return fmt.Errorf("incremental: snapshot format %d is not supported (want %d)", s.Format, snapshotFormat)
	}
	// The configuration fingerprint: recovering under a different blocker,
	// matcher or meta-blocker would silently break the differential
	// contract, so refuse loudly instead.
	if entity.Kind(s.Kind) != r.cfg.Kind {
		return fmt.Errorf("incremental: snapshot resolves %v collections, resolver configured for %v", entity.Kind(s.Kind), r.cfg.Kind)
	}
	if s.Blocker != r.cfg.Blocker.Name() {
		return fmt.Errorf("incremental: snapshot was written under blocker %q, resolver configured with %q", s.Blocker, r.cfg.Blocker.Name())
	}
	if s.Matcher != r.cfg.Matcher.Name() {
		return fmt.Errorf("incremental: snapshot was written under matcher %q, resolver configured with %q", s.Matcher, r.cfg.Matcher.Name())
	}
	if meta := r.fingerprintMeta(); s.Meta != meta {
		return fmt.Errorf("incremental: snapshot was written under meta-blocking %q, resolver configured with %q", s.Meta, meta)
	}

	// Rebuild the collection slot-for-slot and the block index from the
	// stored key sets. The index is rebuilt WITHOUT observers so the
	// restored weighted graph (loaded whole below) is not double-counted;
	// it starts observing once membership is in place.
	blocks := blocking.NewBlockIndex(r.cfg.Kind)
	for i, sl := range s.Slots {
		d := &entity.Description{ID: -1}
		if sl.Live {
			d.URI, d.Source = sl.URI, sl.Source
			for _, a := range sl.Attrs {
				d.Attrs = append(d.Attrs, entity.Attribute{Name: a.Name, Value: a.Value})
			}
		}
		id, err := r.coll.Add(d)
		if err != nil {
			return fmt.Errorf("incremental: snapshot slot %d: %w", i, err)
		}
		if id != i {
			return fmt.Errorf("incremental: snapshot slot %d restored at handle %d", i, id)
		}
		r.live = append(r.live, sl.Live)
		if !sl.Live {
			continue
		}
		r.liveCount++
		if d.URI != "" {
			if _, dup := r.byURI[d.URI]; dup {
				return fmt.Errorf("incremental: snapshot lists URI %q twice", d.URI)
			}
			r.byURI[d.URI] = id
		}
		if err := blocks.Add(id, d.Source, sl.Keys); err != nil {
			return fmt.Errorf("incremental: snapshot slot %d: %w", i, err)
		}
	}
	r.blocks = blocks

	edges := make([]graph.Edge, 0, len(s.Matches))
	for _, m := range s.Matches {
		if !r.isLive(m[0]) || !r.isLive(m[1]) {
			return fmt.Errorf("incremental: snapshot match (%d,%d) references a dead slot", m[0], m[1])
		}
		edges = append(edges, graph.Edge{A: m[0], B: m[1], Weight: 1})
	}
	r.dyn = graph.DynamicFromEdges(edges)

	if r.cfg.Meta != nil {
		if s.Weighted == nil {
			return fmt.Errorf("incremental: snapshot lacks the weighted blocking graph the meta configuration requires")
		}
		wg, err := metablocking.WeightedGraphFromSnapshot(s.Weighted)
		if err != nil {
			return fmt.Errorf("incremental: %w", err)
		}
		if wg.Kind() != r.cfg.Kind {
			return fmt.Errorf("incremental: snapshot weighted graph resolves %v collections, resolver configured for %v", wg.Kind(), r.cfg.Kind)
		}
		r.weighted = wg
		r.simCache = NewDecisionCache()
		for _, e := range s.SimCache {
			r.simCache.Set(e.A, e.B, e.Match)
		}
		r.lastKept = r.lastKept[:0]
		for _, k := range s.LastKept {
			r.lastKept = append(r.lastKept, graph.Edge{A: k.A, B: k.B, Weight: k.W})
		}
		r.metaDirty = s.MetaDirty
		// The graph was loaded whole; it observes membership from here on.
		r.blocks.Observe(wg)
	}

	if s.LastRecord != nil {
		rec, err := recordFromJSON(*s.LastRecord)
		if err != nil {
			return fmt.Errorf("incremental: snapshot last record: %w", err)
		}
		r.lastRecord = &rec
	}

	r.stats.Inserts = s.Stats.Inserts
	r.stats.Updates = s.Stats.Updates
	r.stats.Deletes = s.Stats.Deletes
	r.stats.Comparisons = s.Stats.Comparisons
	r.lastSeq = s.LastSeq
	return nil
}
