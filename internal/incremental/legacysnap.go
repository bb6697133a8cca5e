// Read-only support for chained delta snapshots, the checkpoint form older
// releases wrote. Every checkpoint now writes a full snapshot (snapshot.go),
// but a directory written before that may still hold a chain: a full anchor
// plus delta links, each naming its parent and carrying only the state
// dirtied since that parent. Recovery walks the chain from the newest
// snapshot back to its anchor, restores the anchor, applies the links in
// order and replays the WAL tail. The next checkpoint writes a full snapshot
// and prunes the whole chain, so a reopened directory stops depending on
// this decoder at its first compaction.
package incremental

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"

	"entityres/internal/entity"
	"entityres/internal/graph"
	"entityres/internal/wal"
)

// deltaSnapshotFormat marks a chained delta snapshot; full snapshots keep
// snapshotFormat. The two share one file namespace and are told apart by
// the leading format field.
const deltaSnapshotFormat = 2

// deltaSnapshotJSON is the wire form of one chain link. Slot, edge, cache
// and kept entries carry the values current at the link (a removal is an
// entry whose presence flag is false); counters, the last record and the
// deferred-work flag are absolute. The links also carry the weighted-graph
// statistics they touched, which the decoder ignores: those statistics are
// pure functions of block membership, so the restored graph re-derives them
// by observing the slot transitions (see applyDeltaSnapshot).
type deltaSnapshotJSON struct {
	Format  int    `json:"format"`
	Kind    int    `json:"kind"`
	Blocker string `json:"blocker"`
	Matcher string `json:"matcher"`
	Meta    string `json:"meta,omitempty"`

	// SlotCount is the collection's slot count at the link; restore
	// verifies it so a missing new-slot entry fails loudly.
	SlotCount int             `json:"slot_count"`
	Slots     []deltaSlotJSON `json:"slots,omitempty"`
	Matches   []edgeDeltaJSON `json:"matches,omitempty"`

	Stats      ImageStats  `json:"stats"`
	LastRecord *recordJSON `json:"last_record,omitempty"`
	LastSeq    uint64      `json:"last_seq,omitempty"`

	SimCache  []cacheDeltaJSON `json:"sim_cache,omitempty"`
	Kept      []keptDeltaJSON  `json:"kept,omitempty"`
	MetaDirty bool             `json:"meta_dirty,omitempty"`
}

// deltaSlotJSON is one dirty collection slot: its handle plus the same
// current-state fields an image stores per slot.
type deltaSlotJSON struct {
	ID int `json:"id"`
	ImageSlot
}

type edgeDeltaJSON struct {
	A       entity.ID `json:"a"`
	B       entity.ID `json:"b"`
	Present bool      `json:"present,omitempty"`
}

type cacheDeltaJSON struct {
	A       entity.ID `json:"a"`
	B       entity.ID `json:"b"`
	Present bool      `json:"present,omitempty"`
	Match   bool      `json:"match,omitempty"`
}

type keptDeltaJSON struct {
	A    entity.ID `json:"a"`
	B    entity.ID `json:"b"`
	Kept bool      `json:"kept,omitempty"`
	W    float64   `json:"w,omitempty"`
}

// applyDeltaSnapshot advances a restored resolver by one chain link. Called
// by OpenResolver after restore, on an unpublished resolver whose
// weighted graph already observes the block index: the slot transitions
// below keep its statistics current exactly as the original operations did.
func (r *Resolver) applyDeltaSnapshot(payload []byte) error {
	var s deltaSnapshotJSON
	if err := json.Unmarshal(payload, &s); err != nil {
		return fmt.Errorf("incremental: decoding delta snapshot: %w", err)
	}
	if s.Format != deltaSnapshotFormat {
		return fmt.Errorf("incremental: delta snapshot format %d is not supported (want %d)", s.Format, deltaSnapshotFormat)
	}
	if err := r.checkFingerprint(s.Kind, s.Blocker, s.Matcher, s.Meta); err != nil {
		return err
	}

	// Dirty slots, handle-ascending. New slots (id == current length) are
	// appended as dead placeholders first, then transitioned like any other
	// slot; every slot created since the parent snapshot is in the link, so
	// the ascending walk never leaves a gap.
	prev := -1
	for i, dsl := range s.Slots {
		if dsl.ID <= prev {
			return fmt.Errorf("incremental: delta snapshot slots out of order at entry %d", i)
		}
		prev = dsl.ID
		if dsl.ID > r.coll.Len() {
			return fmt.Errorf("incremental: delta snapshot skips slots %d..%d — a chain link is missing state", r.coll.Len(), dsl.ID-1)
		}
		id := entity.ID(dsl.ID)
		if dsl.ID == r.coll.Len() {
			r.coll.MustAdd(&entity.Description{ID: -1})
			r.live = append(r.live, false)
		}
		// Transition: clear the slot's previous live state, then install the
		// link's. Old URIs are unmapped before new ones are claimed; a URI
		// can only ever move to a HIGHER slot between snapshots (inserts
		// validate global uniqueness, so the old holder died first), and the
		// ascending walk clears it before the new holder appears.
		if r.live[id] {
			old := r.coll.Get(id)
			if old.URI != "" {
				delete(r.byURI, old.URI)
			}
			r.blocks.Remove(id)
			r.liveCount--
		}
		d := r.coll.Get(id)
		d.URI, d.Source, d.Attrs = "", 0, nil
		r.live[id] = dsl.Live
		if !dsl.Live {
			continue
		}
		d.URI, d.Source = dsl.URI, dsl.Source
		for _, a := range dsl.Attrs {
			d.Attrs = append(d.Attrs, entity.Attribute{Name: a.Name, Value: a.Value})
		}
		r.liveCount++
		if d.URI != "" {
			if _, dup := r.byURI[d.URI]; dup {
				return fmt.Errorf("incremental: delta snapshot maps URI %q to two live slots", d.URI)
			}
			r.byURI[d.URI] = id
		}
		if err := r.blocks.Add(id, d.Source, dsl.Keys); err != nil {
			return fmt.Errorf("incremental: delta snapshot slot %d: %w", dsl.ID, err)
		}
	}
	if r.coll.Len() != s.SlotCount {
		return fmt.Errorf("incremental: delta snapshot expects %d slots, chain produced %d", s.SlotCount, r.coll.Len())
	}

	for _, e := range s.Matches {
		if e.Present {
			if !r.isLive(e.A) || !r.isLive(e.B) {
				return fmt.Errorf("incremental: delta snapshot match (%d,%d) references a dead slot", e.A, e.B)
			}
			r.dyn.AddEdge(e.A, e.B, 1)
		} else {
			r.dyn.RemoveEdge(e.A, e.B)
		}
	}

	if r.cfg.Meta != nil {
		for _, c := range s.SimCache {
			if c.Present {
				r.simCache.Set(c.A, c.B, c.Match)
			} else {
				r.simCache.Delete(c.A, c.B)
			}
		}
		if len(s.Kept) > 0 {
			r.lastKept = applyKeptDeltas(r.lastKept, s.Kept)
		}
		r.metaDirty = s.MetaDirty
	}

	if s.LastRecord != nil {
		rec, err := recordFromJSON(*s.LastRecord)
		if err != nil {
			return fmt.Errorf("incremental: delta snapshot last record: %w", err)
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

// applyKeptDeltas merges re-fated entries into the (A, B)-sorted kept
// baseline and returns it re-sorted.
func applyKeptDeltas(kept []graph.Edge, deltas []keptDeltaJSON) []graph.Edge {
	m := make(map[entity.Pair]float64, len(kept))
	for _, e := range kept {
		m[entity.NewPair(e.A, e.B)] = e.Weight
	}
	for _, d := range deltas {
		p := entity.NewPair(d.A, d.B)
		if d.Kept {
			m[p] = d.W
		} else {
			delete(m, p)
		}
	}
	out := make([]graph.Edge, 0, len(m))
	for p, w := range m {
		out = append(out, graph.Edge{A: p.A, B: p.B, Weight: w})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// loadSnapshotChain reads the snapshot chain ending at tip: the full
// anchor's payload plus the delta payloads NEWEST FIRST (callers apply them
// in reverse). A directory written with full snapshots only is a chain of
// length zero. Every link the chain names must be on disk — a missing link
// means the directory was tampered with, and recovery refuses rather than
// restore a silently wrong state.
func loadSnapshotChain(dir string, tip uint64) (full []byte, deltas [][]byte, err error) {
	seq := tip
	for {
		payload, err := wal.ReadFileFramed(filepath.Join(dir, snapshotFile(seq)))
		if err != nil {
			return nil, nil, fmt.Errorf("incremental: reading snapshot chain link %d: %w", seq, err)
		}
		var head struct {
			Format int    `json:"format"`
			Parent uint64 `json:"parent"`
		}
		if err := json.Unmarshal(payload, &head); err != nil {
			return nil, nil, fmt.Errorf("incremental: decoding snapshot chain link %d: %w", seq, err)
		}
		switch head.Format {
		case snapshotFormat:
			return payload, deltas, nil
		case deltaSnapshotFormat:
			if head.Parent == 0 || head.Parent >= seq {
				return nil, nil, fmt.Errorf("incremental: delta snapshot %d names parent %d — the chain is corrupt", seq, head.Parent)
			}
			deltas = append(deltas, payload)
			seq = head.Parent
		default:
			return nil, nil, fmt.Errorf("incremental: snapshot %d has unsupported format %d", seq, head.Format)
		}
	}
}
