package incremental

import (
	"encoding/json"
	"fmt"
	"sort"

	"entityres/internal/entity"
	"entityres/internal/graph"
)

// The state image: the one serialized form of a resolver's full state. A
// compaction checkpoint writes it, crash recovery restores it
// (OpenResolver), and a networked coordinator ships a shard that lost its
// disk its key-space projection in the same layout (Bootstrap). The image
// stores what cannot be re-derived —
//
//   - every collection slot in handle order (dead slots as placeholders, so
//     restored handles equal the original run's), with each live
//     description's attributes AND its indexed blocking keys, so restore
//     never re-runs the blocker's tokenization;
//   - the match graph's edges;
//   - with meta-blocking, the cached matcher decisions (so restored
//     reconciles re-evaluate exactly the pairs an uninterrupted resolver
//     would, keeping comparison counters bit-exact), the last pruning
//     result and the deferred-work flag;
//   - the operation and comparison counters and the routed-stream position.
//
// The weighted blocking graph is NOT stored. Its statistics are pure
// functions of block membership, and the graph observes the block index
// while restore re-adds every slot, so it rebuilds in the same pass.
// Storing it cost one entry per co-occurring pair: it dominated meta
// checkpoints, took longer to decode than the rebuild takes, and pushed
// mid-sized checkpoints past the WAL's snapshot bound. Images written by
// older releases still carry it under "weighted"; the decoder ignores the
// key, so the format is unchanged.
//
// A configuration fingerprint (kind, blocker, matcher, meta-blocker names)
// guards restore: state written under one configuration refuses to load
// under another instead of silently diverging from the differential
// contract.

// snapshotFormat versions the image layout.
const snapshotFormat = 1

// Image is a resolver's full state in its serialized layout. NewImage
// fills the fingerprint; Encode renders it and DecodeImage parses it back.
type Image struct {
	Format  int    `json:"format"`
	Kind    int    `json:"kind"`
	Blocker string `json:"blocker"`
	Matcher string `json:"matcher"`
	Meta    string `json:"meta,omitempty"`

	Slots   []ImageSlot    `json:"slots,omitempty"`
	Stats   ImageStats     `json:"stats"`
	Matches [][2]entity.ID `json:"matches,omitempty"`
	// LastRecord is the most recently applied operation, preserved across
	// compaction so a sharded fan-out-tear donor (Resolver.LastRecord) can
	// always produce it even when the WAL tail is empty.
	LastRecord *recordJSON `json:"last_record,omitempty"`
	// LastSeq is the acknowledged routed-stream sequence number (routed.go);
	// 0 for resolvers fed through the direct methods.
	LastSeq uint64 `json:"last_seq,omitempty"`

	SimCache  []simCacheJSON `json:"sim_cache,omitempty"`
	LastKept  []keptJSON     `json:"last_kept,omitempty"`
	MetaDirty bool           `json:"meta_dirty,omitempty"`
}

// ImageSlot is one collection slot in handle order. Dead slots (deleted
// descriptions, burned inserts, a shard's slot-advanced placeholders)
// serialize as the zero value: their content is unobservable, only the
// handle they occupy matters.
type ImageSlot struct {
	Live   bool       `json:"live,omitempty"`
	URI    string     `json:"uri,omitempty"`
	Source int        `json:"source,omitempty"`
	Attrs  []attrJSON `json:"attrs,omitempty"`
	// Keys is the slot's distinct sorted blocking key set, exactly as
	// indexed — restore feeds it straight back into the block index.
	Keys []string `json:"keys,omitempty"`
}

// ImageStats are the operation and comparison counters.
type ImageStats struct {
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

// NewImage returns an empty image carrying cfg's fingerprint.
func NewImage(cfg Config) *Image {
	im := &Image{
		Format:  snapshotFormat,
		Kind:    int(cfg.Kind),
		Blocker: cfg.Blocker.Name(),
		Matcher: cfg.Matcher.Name(),
	}
	if cfg.Meta != nil {
		im.Meta = cfg.Meta.Name()
	}
	return im
}

// NewImageSlot returns the live slot of description d indexed under keys.
func NewImageSlot(d *entity.Description, keys []string) ImageSlot {
	sl := ImageSlot{Live: true, URI: d.URI, Source: d.Source, Keys: keys}
	for _, a := range d.Attrs {
		sl.Attrs = append(sl.Attrs, attrJSON{Name: a.Name, Value: a.Value})
	}
	return sl
}

// Encode renders the image in its serialized layout.
func (im *Image) Encode() ([]byte, error) {
	payload, err := json.Marshal(im)
	if err != nil {
		return nil, fmt.Errorf("incremental: %w", err)
	}
	return payload, nil
}

// DecodeImage parses a serialized image and checks its format version.
// Keys the layout no longer has (an older release's weighted graph) are
// ignored.
func DecodeImage(payload []byte) (*Image, error) {
	var im Image
	if err := json.Unmarshal(payload, &im); err != nil {
		return nil, fmt.Errorf("incremental: decoding snapshot: %w", err)
	}
	if im.Format != snapshotFormat {
		return nil, fmt.Errorf("incremental: snapshot format %d is not supported (want %d)", im.Format, snapshotFormat)
	}
	return &im, nil
}

// Abandon hard-stops the resolver, simulating a process crash: the
// journal's file handles — and with them the WAL directory lock, which the
// kernel would release when a crashed process exits — are dropped with
// none of the graceful shutdown work (no checkpoint, no reconcile, no
// final compaction). The on-disk state is exactly what the journaled
// operations left there, which is what crash recovery must reopen from.
// It is the kill -9 of the chaos suites: a shard server or coordinator
// abandons its resolver with it, and the crash tests reopen abandoned
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

// encodeSnapshot serializes the resolver's full state. It returns the
// payload plus the serialized slot count (a compaction-cost counter).
// Callers hold r.mu.
func (r *Resolver) encodeSnapshot() ([]byte, int, error) {
	im := NewImage(r.cfg)
	im.Stats = ImageStats{
		Inserts:     r.stats.Inserts,
		Updates:     r.stats.Updates,
		Deletes:     r.stats.Deletes,
		Comparisons: r.stats.Comparisons,
	}
	for _, d := range r.coll.All() {
		var sl ImageSlot
		if r.live[d.ID] {
			sl = NewImageSlot(d, r.blocks.Keys(d.ID))
		}
		im.Slots = append(im.Slots, sl)
	}
	for _, e := range r.dyn.SnapshotEdges() {
		im.Matches = append(im.Matches, [2]entity.ID{e.A, e.B})
	}
	im.LastSeq = r.lastSeq
	if r.lastRecord != nil {
		j := recordToJSON(*r.lastRecord)
		im.LastRecord = &j
	}
	if r.weighted != nil {
		im.SimCache = encodeSimCache(r.simCache)
		for _, e := range r.lastKept {
			im.LastKept = append(im.LastKept, keptJSON{A: e.A, B: e.B, W: e.Weight})
		}
		im.MetaDirty = r.metaDirty
	}
	payload, err := im.Encode()
	if err != nil {
		return nil, 0, err
	}
	return payload, len(im.Slots), nil
}

// encodeSimCache flattens the bidirectional decision cache into canonical
// (A < B) entries, sorted for a deterministic layout.
func encodeSimCache(cache *decisionCache) []simCacheJSON {
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

// restore validates an image against the resolver's configuration and
// loads it into a resolver that holds no state yet — the one restore path
// of checkpoint recovery and shard bootstrap. Callers hold r.mu or own the
// unpublished resolver.
func (r *Resolver) restore(im *Image) error {
	if err := r.checkFingerprint(im.Kind, im.Blocker, im.Matcher, im.Meta); err != nil {
		return err
	}

	// Rebuild the collection slot-for-slot and the block index from the
	// stored key sets. Under meta-blocking the weighted graph observes the
	// index (New wires it), so its statistics rebuild as the slots go in.
	for i, sl := range im.Slots {
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
		if err := r.blocks.Add(id, d.Source, sl.Keys); err != nil {
			return fmt.Errorf("incremental: snapshot slot %d: %w", i, err)
		}
	}

	edges := make([]graph.Edge, 0, len(im.Matches))
	for _, m := range im.Matches {
		if err := checkPair("match", m[0], m[1], len(im.Slots)); err != nil {
			return err
		}
		if !r.isLive(m[0]) || !r.isLive(m[1]) {
			return fmt.Errorf("incremental: snapshot match (%d,%d) references a dead slot", m[0], m[1])
		}
		edges = append(edges, graph.Edge{A: m[0], B: m[1], Weight: 1})
	}
	r.dyn = graph.DynamicFromEdges(edges)

	if r.cfg.Meta != nil {
		for _, e := range im.SimCache {
			if err := checkPair("cached decision", e.A, e.B, len(im.Slots)); err != nil {
				return err
			}
			r.simCache.Set(e.A, e.B, e.Match)
		}
		// A kept pair may name a slot deleted since the last reconcile: the
		// next reconcile re-fates it, so liveness is not required.
		r.lastKept = r.lastKept[:0]
		for _, k := range im.LastKept {
			if err := checkPair("kept pair", k.A, k.B, len(im.Slots)); err != nil {
				return err
			}
			r.lastKept = append(r.lastKept, graph.Edge{A: k.A, B: k.B, Weight: k.W})
		}
		r.metaDirty = im.MetaDirty
	}

	if im.LastRecord != nil {
		rec, err := recordFromJSON(*im.LastRecord)
		if err != nil {
			return fmt.Errorf("incremental: snapshot last record: %w", err)
		}
		r.lastRecord = &rec
	}

	r.stats.Inserts = im.Stats.Inserts
	r.stats.Updates = im.Stats.Updates
	r.stats.Deletes = im.Stats.Deletes
	r.stats.Comparisons = im.Stats.Comparisons
	r.lastSeq = im.LastSeq
	return nil
}

// checkFingerprint refuses state written under another configuration:
// recovering under a different kind, blocker, matcher or meta-blocker would
// silently break the differential contract, so it fails loudly instead.
func (r *Resolver) checkFingerprint(kind int, blocker, matcher, meta string) error {
	want := NewImage(r.cfg)
	if kind != want.Kind {
		return fmt.Errorf("incremental: snapshot resolves %v collections, resolver configured for %v", entity.Kind(kind), r.cfg.Kind)
	}
	if blocker != want.Blocker {
		return fmt.Errorf("incremental: snapshot was written under blocker %q, resolver configured with %q", blocker, want.Blocker)
	}
	if matcher != want.Matcher {
		return fmt.Errorf("incremental: snapshot was written under matcher %q, resolver configured with %q", matcher, want.Matcher)
	}
	if meta != want.Meta {
		return fmt.Errorf("incremental: snapshot was written under meta-blocking %q, resolver configured with %q", meta, want.Meta)
	}
	return nil
}

// checkPair refuses an image pair that is a self-pair or names a handle
// outside the image's slots.
func checkPair(what string, a, b entity.ID, slots int) error {
	if a < 0 || a >= slots || b < 0 || b >= slots {
		return fmt.Errorf("incremental: snapshot %s (%d,%d) is outside the %d slots", what, a, b, slots)
	}
	if a == b {
		return fmt.Errorf("incremental: snapshot %s (%d,%d) is a self-pair", what, a, b)
	}
	return nil
}
