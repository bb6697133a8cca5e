// Package incremental implements streaming entity resolution: a long-lived
// Resolver that accepts a stream of insert, update and delete operations
// and maintains the resolved state — blocks, candidate comparisons, match
// graph and entity clusters — incrementally, touching only the state the
// operation reaches instead of re-running the pipeline from scratch.
//
// This is the paper's §III iteration model pushed to its serving-time
// conclusion: the comparison "queue" is re-derived per operation from the
// blocks the operation changed (its delta frontier, walked along its keys'
// posting lists; a batch's run of inserts is walked in one pass), the
// frontier's distinct pairs go to the matcher's pair entry point
// (matching.ResolvePairsRows), and the match graph and its connected
// components are maintained by graph.Dynamic with targeted recomputation.
//
// The Resolver's contract is differential equivalence: after any sequence
// of operations, its match set and clusters are identical to a from-scratch
// batch core.Pipeline run over the surviving descriptions. That holds
// because (1) the blocker is a blocking.StreamableBlocker, so a
// description's keys depend only on itself, (2) the matcher similarity is a
// pure function of the two descriptions, and (3) every pair's co-occurrence
// and contents are unchanged by operations that touch neither endpoint.
// Corpus-dependent matchers (TFIDFCosine) and collection-dependent blockers
// are rejected by construction — their decisions shift with every arrival,
// which is incompatible with incremental maintenance.
//
// With a MetaBlocker configured (stream-safe subset: WEP/WNP pruning of
// CBS/ECBS/JS weights), the resolver additionally maintains the weighted
// blocking graph incrementally — a metablocking.WeightedGraph observing
// the block index's membership changes — and prunes the comparison
// frontier through it before anything reaches the matcher pool: see
// meta.go. The differential contract extends to meta-blocking: at every
// read, matches and clusters equal a batch run with the same MetaBlocker
// over the surviving descriptions.
package incremental

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"entityres/internal/blocking"
	"entityres/internal/entity"
	"entityres/internal/graph"
	"entityres/internal/matching"
	"entityres/internal/metablocking"
)

// Config parameterizes a Resolver.
type Config struct {
	// Kind is the resolution setting of the stream (default Dirty).
	Kind entity.Kind
	// Blocker derives the blocking keys (required). It must be a
	// collection-independent keyed blocker; see blocking.StreamableBlocker.
	Blocker blocking.StreamableBlocker
	// Matcher is the thresholded match decision (required). Its similarity
	// must depend only on the two descriptions — corpus-weighted measures
	// like TFIDFCosine drift as the corpus changes and are not supported.
	Matcher *matching.Matcher
	// Workers sizes the delta-matching worker pool; <= 0 means 1. The
	// match output is worker-count independent.
	Workers int
	// Meta, when set, prunes the comparison frontier through the live
	// weighted blocking graph before it reaches the matcher. Only the
	// stream-safe subset is accepted — WEP or WNP pruning of CBS, ECBS or
	// JS weights (metablocking.MetaBlocker.ValidateStreaming); EJS, ARCS,
	// CEP and CNP are batch-only and rejected with a specific error.
	Meta *metablocking.MetaBlocker
	// Durable tunes the WAL-backed journal of a resolver opened with
	// OpenResolver — segment rotation size, snapshot-compaction cadence and
	// fsync policy. New ignores it: in-memory resolvers run on the no-op
	// journal.
	Durable DurableOptions
	// DeltaFilter, when set, restricts delta matching to the candidate
	// pairs the filter claims for this resolver. It is invoked once per
	// operation with the operated-on description d and returns the claim
	// function for d's frontier: a candidate `other` suggested under
	// blocking key `key` is evaluated only when claim(key, other) returns
	// true — the two-level shape lets the filter derive d's state once and
	// memoize per-candidate work across d's keys. The sharded coordinator
	// (package sharded) uses it to assign every cross-shard candidate pair
	// to exactly one shard — the owner of the pair's first shared blocking
	// key — so the shard comparison counts sum to the single-node
	// resolver's count bit for bit. The filter must be a deterministic pure
	// function of the descriptions' current attributes and must not retain
	// them; it is not captured by snapshots, so a resolver recovered by
	// OpenResolver must be configured with an identical filter or replay
	// diverges. The claim function is only used while d's frontier is
	// walked, from one goroutine; a candidate it claimed is not offered
	// again. Nil evaluates every suggested pair (the single-node behavior).
	DeltaFilter func(d *entity.Description) func(key string, other *entity.Description) bool
}

// Stats summarizes the work a resolver has performed.
type Stats struct {
	// Ops counts applied operations by kind.
	Inserts, Updates, Deletes int64
	// Comparisons counts matcher invocations across all operations.
	Comparisons int64
	// Live is the number of live descriptions.
	Live int
	// Matches is the number of current match pairs.
	Matches int
	// Clusters is the number of current non-singleton entity clusters.
	Clusters int
	// CandidatePairs is the number of distinct co-occurring pairs in the
	// live weighted blocking graph, and KeptPairs the number that survived
	// the latest pruning pass — their ratio is the live comparisons-saved
	// measure of meta-blocking. Both are zero without a Meta configuration.
	CandidatePairs, KeptPairs int
}

// String renders the stats compactly.
func (s Stats) String() string {
	return fmt.Sprintf("ops=%d/%d/%d live=%d comparisons=%d matches=%d clusters=%d",
		s.Inserts, s.Updates, s.Deletes, s.Live, s.Comparisons, s.Matches, s.Clusters)
}

// Resolver is a long-lived streaming entity resolver. All methods are safe
// for concurrent use: mutating operations are serialized internally, reads
// run concurrently under a shared lock (see the mu field), and a read
// racing a write observes either the full pre-op or the full post-op state,
// never a partial one.
type Resolver struct {
	cfg   Config
	keyer blocking.KeyFunc

	// journal persists every operation before it is applied (see
	// journal.go). New installs the no-op journal; OpenResolver the
	// WAL-backed one.
	journal Journal
	// snapEvery > 0 compacts the journal every snapEvery journal records;
	// sinceSnap counts records since the last checkpoint.
	snapEvery int
	sinceSnap int
	// recovery describes what OpenResolver restored; lastRecord is the
	// most recently applied operation in journal-record form (kept across
	// snapshots, so a fan-out-tear donor never loses it to compaction —
	// see LastRecord).
	recovery   RecoveryInfo
	lastRecord *Record
	// broken, once set, fails every further mutating operation: the
	// resolver was closed, or a journal rollback failed and the log no
	// longer mirrors memory.
	broken error

	// mu is a reader/writer lock: mutating operations hold it exclusively,
	// reads share it. Reads that must reconcile deferred meta-blocking work
	// first follow the reconcile-then-share discipline of lockShared; plain
	// reads take the read lock directly (rlock). Every read-side method is
	// pure under the shared lock — the block index, dynamic match graph and
	// weighted graph maintain their derived state eagerly on the write path,
	// so concurrent readers never mutate.
	mu sync.RWMutex
	// readLocks counts shared-lock acquisitions across the read surface and
	// sharedReads the read operations served entirely under the shared lock
	// (without paying a reconcile themselves) — the scaling evidence Perf
	// folds into PerfCounters. Atomics: incremented while holding only the
	// read lock.
	readLocks   atomic.Int64
	sharedReads atomic.Int64
	// coll holds every description ever inserted, at its internal ID
	// (slot). Deleted slots keep their tombstone description so the slot
	// space stays dense for the matcher's Get path; live tracks liveness
	// and liveCount the number of true entries.
	coll      *entity.Collection
	live      []bool
	liveCount int
	// byURI maps the URI of each live description to its slot.
	byURI map[string]entity.ID

	blocks *blocking.BlockIndex
	dyn    *graph.Dynamic
	// The frontier walk's scratch (see walk and index), reused across ops.
	stamp    []uint64
	epoch    uint64
	frontier []entity.Pair

	// lastSeq is the sequence number of the last applied routed-stream
	// record (routed.go); 0 for resolvers fed through the direct methods.
	lastSeq uint64

	// Live meta-blocking state (nil / unused without cfg.Meta): the
	// incrementally weighted blocking graph, the cached pairwise matcher
	// decisions, the edges retained by the latest pruning pass, the delta
	// pruner re-deriving fates proportionally to the changes (created at
	// first reconcile, seeded from lastKept), and the dirty flag driving
	// the deferred reconcile (see meta.go).
	weighted  *metablocking.WeightedGraph
	simCache  *decisionCache
	lastKept  []graph.Edge
	pruner    *metablocking.DeltaPruner
	metaDirty bool

	stats Stats
	perf  PerfCounters
}

// New validates the configuration and returns an empty resolver.
func New(cfg Config) (*Resolver, error) {
	if cfg.Blocker == nil {
		return nil, fmt.Errorf("incremental: resolver requires a streamable Blocker")
	}
	if _, refines := cfg.Blocker.(blocking.BlockRefiner); refines {
		return nil, fmt.Errorf("incremental: blocker %q refines its block collection globally and cannot stream", cfg.Blocker.Name())
	}
	if cfg.Matcher == nil {
		return nil, fmt.Errorf("incremental: resolver requires a Matcher")
	}
	if _, corpus := cfg.Matcher.Sim.(*matching.TFIDFCosine); corpus {
		return nil, fmt.Errorf("incremental: matcher %q depends on corpus statistics and cannot stream", cfg.Matcher.Sim.Name())
	}
	if cfg.Meta != nil {
		if err := cfg.Meta.ValidateStreaming(); err != nil {
			return nil, fmt.Errorf("incremental: %w", err)
		}
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	r := &Resolver{
		cfg:     cfg,
		keyer:   cfg.Blocker.StreamKeyer(),
		journal: nopJournal{},
		coll:    entity.NewCollection(cfg.Kind),
		byURI:   make(map[string]entity.ID),
		blocks:  blocking.NewBlockIndex(cfg.Kind),
		dyn:     graph.NewDynamic(),
	}
	if cfg.Meta != nil {
		// The weighted blocking graph rides the block index's membership
		// notifications, so every Add/Remove below keeps it current.
		r.weighted = metablocking.NewWeightedGraph(cfg.Kind)
		r.blocks.Observe(r.weighted)
		r.simCache = newDecisionCache()
	}
	return r, nil
}

// Kind returns the resolution setting of the stream.
func (r *Resolver) Kind() entity.Kind { return r.cfg.Kind }

// Insert adds a new description and resolves it against its delta frontier:
// only the pairs its blocking keys suggest are compared. It is a batch of
// one (InsertOne): the description is cloned, the caller keeps ownership of
// d, and the internal handle is returned. Non-empty URIs must be unique
// across live descriptions.
func (r *Resolver) Insert(ctx context.Context, d *entity.Description) (entity.ID, error) {
	return InsertOne(ctx, r, d)
}

// Update replaces the attributes of the live description with the given
// handle and re-resolves it: its old matches are retired, its block
// membership is re-keyed, and only pairs in the new delta frontier are
// compared. The source of a description is immutable. A batch of one.
func (r *Resolver) Update(ctx context.Context, id entity.ID, attrs []entity.Attribute) error {
	return UpdateOne(ctx, r, id, attrs)
}

// Delete removes the live description with the given handle: its blocks
// shed the member, its match edges disappear, and its cluster is split by
// targeted recomputation. No comparisons are executed. A batch of one.
func (r *Resolver) Delete(id entity.ID) error {
	return DeleteOne(context.Background(), r, id)
}

// insertRun applies inserts with consecutive handles from the next free
// slot: it adds them all, then keys and resolves them in one pass (index).
// Callers hold r.mu and have validated the descriptions.
func (r *Resolver) insertRun(recs []Record) error {
	lo := r.coll.Len()
	for _, rec := range recs {
		cp := (&entity.Description{ID: -1, URI: rec.URI, Source: rec.Source, Attrs: rec.Attrs}).Clone()
		id, err := r.coll.Add(cp)
		if err != nil {
			return fmt.Errorf("incremental: %w", err)
		}
		r.live = append(r.live, true)
		if cp.URI != "" {
			r.byURI[cp.URI] = id
		}
		r.liveCount++
		r.stats.Inserts++
		r.lastRecord = &Record{Kind: OpInsert, ID: id, URI: cp.URI, Source: cp.Source, Attrs: cp.Attrs}
	}
	return r.index(lo, r.coll.Len())
}

// applyUpdate is an update's state mutation, shared by ApplyBatch, journal
// replay and the routed path. Callers hold r.mu and have checked liveness.
func (r *Resolver) applyUpdate(id entity.ID, attrs []entity.Attribute) error {
	d := r.coll.Get(id)
	r.retire(id)
	d.Attrs = append([]entity.Attribute(nil), attrs...)
	r.stats.Updates++
	r.lastRecord = &Record{Kind: OpUpdate, ID: id, Attrs: d.Attrs}
	return r.index(id, id+1)
}

// applyDelete is a delete's state mutation, shared by ApplyBatch, journal
// replay and the routed path; it cannot fail. Callers hold r.mu and have
// checked liveness.
func (r *Resolver) applyDelete(id entity.ID) {
	r.retire(id)
	d := r.coll.Get(id)
	if d.URI != "" {
		delete(r.byURI, d.URI)
	}
	r.live[id] = false
	r.liveCount--
	r.stats.Deletes++
	r.lastRecord = &Record{Kind: OpDelete, ID: id}
}

// ApplyBatch is the resolver's one apply path: it applies a batch of
// insert, update and delete records as one amortized operation — one lock
// acquisition, one journal append carrying the whole batch (one fsync
// instead of N — crash recovery replays the batch atomically or not at
// all), and, under live meta-blocking, one merged graph delta for the next
// read's reconcile to prune instead of N per-op deltas. Insert, Update,
// Delete and Apply are batches of one, journaled as the bare operation
// record (see journalEntry); the resolved state after a batch is
// bit-identical to applying its records one at a time.
//
// Each maximal run of inserts is keyed whole and resolved in one frontier
// pass (see index); updates and deletes apply on their own.
//
// Records are validated up front against the sequential state the batch
// builds — later records see earlier ones, so a batch may insert a
// description and update or delete it — and any invalid record rejects
// the whole batch before anything is journaled or applied. Updates and
// deletes address their target by handle, or by URI when ID is negative;
// the resolved handles (and the handles assigned to inserts) are written
// back into recs. The caller's context gates admission only: once the
// batch is journaled it applies to completion, mirroring the sharded
// coordinator's admission rule, so journal and memory cannot split inside
// a batch. An empty batch is a no-op.
func (r *Resolver) ApplyBatch(ctx context.Context, recs []Record) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.broken != nil {
		return r.broken
	}
	if len(recs) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("incremental: batch admission: %w", err)
	}
	if err := r.validateBatch(recs, false); err != nil {
		return err
	}
	return r.commit(recs, nil)
}

// commit journals validated records as one entry (see journalEntry) and
// applies them through the run splitter — the tail ApplyBatch and
// ApplyRouted share: one append, one fsync, one compaction tick. neighbors
// is applyRecords'. Callers hold r.mu.
func (r *Resolver) commit(recs []Record, neighbors [][]entity.ID) error {
	entry := journalEntry(recs)
	if err := r.journal.Record(entry); err != nil {
		return err
	}
	r.perf.JournalAppends++
	if i, err := r.applyRecords(recs, false, neighbors); err != nil {
		// Validation makes this unreachable. If it ever happens memory may
		// hold a partial apply the journal cannot reproduce, so refuse
		// further mutation rather than let the divergence reach a snapshot.
		r.broken = fmt.Errorf("%w: batch record %d failed mid-apply: %v", ErrBroken, i, err)
		return r.broken
	}
	if entry.Kind == OpBatch {
		r.lastRecord = &entry
	}
	return r.maybeCompact()
}

// journalEntry renders a validated batch as its single journal record. A
// batch of one is the bare operation in the per-op record shape — so a
// single mutation's WAL bytes, replay and LastRecord are exactly what they
// always were — and the apply helpers record it as lastRecord themselves;
// a routed record keeps every field. A longer batch is an OpBatch record
// holding private copies of the sub-records, since it outlives the call as
// lastRecord.
func journalEntry(recs []Record) Record {
	if len(recs) == 1 {
		rec := recs[0]
		switch {
		case rec.Seq != 0:
			rec.Batch = nil
			return rec
		case rec.Kind == OpInsert:
			return Record{Kind: OpInsert, ID: rec.ID, URI: rec.URI, Source: rec.Source, Attrs: rec.Attrs}
		case rec.Kind == OpUpdate:
			return Record{Kind: OpUpdate, ID: rec.ID, Attrs: rec.Attrs}
		default:
			return Record{Kind: OpDelete, ID: rec.ID}
		}
	}
	batch := Record{Kind: OpBatch, Batch: make([]Record, len(recs))}
	for i, rec := range recs {
		rec.Attrs = append([]entity.Attribute(nil), rec.Attrs...)
		rec.Batch = nil
		batch.Batch[i] = rec
	}
	return batch
}

// validateBatch checks every record of a batch — or, routed, of a routed
// frame — against the sequential state the batch will build, resolving
// URI-addressed updates and deletes and assigning insert handles into recs.
// Nothing is mutated; any error rejects the whole batch. Callers hold r.mu.
func (r *Resolver) validateBatch(recs []Record, routed bool) error {
	err := planBatch(r.cfg.Kind, r.coll.Len(),
		func(uri string) (entity.ID, bool) { id, ok := r.byURI[uri]; return id, ok },
		r.isLive,
		func(id entity.ID) string { return r.coll.Get(id).URI },
		recs, routed)
	if err != nil {
		return fmt.Errorf("incremental: %w", err)
	}
	return nil
}

// PlanBatch validates a batch of insert, update and delete records against
// the sequential state the batch will build over a committed base — the
// shared admission check of ApplyBatch and the sharded coordinator's batch
// fan-out, so the deployment forms cannot drift on what a valid batch is.
// The base is abstract: kind is the stream's resolution setting, next the
// first unused handle, lookup resolves a live URI, isLive reports a
// committed slot's liveness and uriOf its URI. Later records see earlier
// ones (a batch may insert a description and then update or delete it),
// resolved handles — and the handles assigned to inserts — are written back
// into recs, and any invalid record rejects the whole batch. Errors carry
// no package prefix; callers wrap.
func PlanBatch(kind entity.Kind, next entity.ID, lookup func(string) (entity.ID, bool), isLive func(entity.ID) bool, uriOf func(entity.ID) string, recs []Record) error {
	return planBatch(kind, next, lookup, isLive, uriOf, recs, false)
}

// planBatch is PlanBatch over direct records or, routed, over a routed
// frame's records (see ApplyRouted), which name their handles: an insert
// the next slot, an update or delete any existing slot, live or not.
func planBatch(kind entity.Kind, next entity.ID, lookup func(string) (entity.ID, bool), isLive func(entity.ID) bool, uriOf func(entity.ID) string, recs []Record, routed bool) error {
	// Overlays over the committed state: URIs the batch has bound or freed
	// so far, slots whose liveness it has changed, and the URIs of the
	// slots it bound (for a later delete to free).
	nextID := next
	bound := make(map[string]entity.ID)
	freed := make(map[string]bool)
	liveOv := make(map[entity.ID]bool)
	slotURI := make(map[entity.ID]string)
	lookupOv := func(uri string) (entity.ID, bool) {
		if id, ok := bound[uri]; ok {
			return id, true
		}
		if freed[uri] {
			return -1, false
		}
		return lookup(uri)
	}
	isLiveOv := func(id entity.ID) bool {
		if v, ok := liveOv[id]; ok {
			return v
		}
		return isLive(id)
	}
	bind := func(id entity.ID, uri string) {
		liveOv[id] = true
		slotURI[id] = uri
		if uri != "" {
			bound[uri] = id
		}
	}
	free := func(id entity.ID) {
		liveOv[id] = false
		uri, ok := slotURI[id]
		if !ok {
			uri = uriOf(id)
		}
		if uri != "" {
			if have, bnd := bound[uri]; bnd && have == id {
				delete(bound, uri)
			}
			freed[uri] = true
		}
	}
	// Errors name the offending record, except in a batch of one — a
	// single Insert, Update or Delete — where there is only one to name.
	at := func(i int) string {
		if len(recs) == 1 {
			return ""
		}
		return fmt.Sprintf("batch record %d: ", i)
	}
	for i := range recs {
		rec := &recs[i]
		if rec.Kind != OpInsert && rec.Kind != OpUpdate && rec.Kind != OpDelete {
			return fmt.Errorf("%sunknown op kind %v; batches hold inserts, updates and deletes", at(i), rec.Kind)
		}
		if routed {
			// A payload can materialize the description: mirror Add's check.
			if err := validSource(kind, rec.Source); err != nil {
				return fmt.Errorf("%srouted %s: %w", at(i), rec.Kind, err)
			}
			if rec.Kind == OpInsert {
				if rec.ID != nextID {
					return fmt.Errorf("%srouted insert assigns handle %d but the next slot is %d", at(i), rec.ID, nextID)
				}
				nextID++
			} else if rec.ID < 0 || rec.ID >= nextID {
				return fmt.Errorf("%srouted %s targets handle %d, which does not exist", at(i), rec.Kind, rec.ID)
			}
			// Checked globally too, but a collision would corrupt byURI.
			if !rec.Advance && rec.URI != "" {
				if have, taken := lookupOv(rec.URI); taken && have != rec.ID {
					return fmt.Errorf("%srouted %s of %q collides with live handle %d", at(i), rec.Kind, rec.URI, have)
				}
			}
			switch live := isLiveOv(rec.ID); {
			case rec.Kind == OpDelete && live:
				free(rec.ID)
			case rec.Kind != OpDelete && !rec.Advance && !live:
				bind(rec.ID, rec.URI) // a full insert, or a materializing update
			}
			continue
		}
		if rec.Seq != 0 || rec.Advance {
			return fmt.Errorf("%sis a routed record; routed streams batch through the transport frame", at(i))
		}
		switch rec.Kind {
		case OpInsert:
			// Mirror entity.Collection.Add's source validation so the apply
			// after journaling cannot fail.
			if err := validSource(kind, rec.Source); err != nil {
				return fmt.Errorf("%s%w", at(i), err)
			}
			if rec.URI != "" {
				if _, taken := lookupOv(rec.URI); taken {
					return fmt.Errorf("%sURI %q already live", at(i), rec.URI)
				}
			}
			rec.ID = nextID
			nextID++
			bind(rec.ID, rec.URI)
		default:
			if rec.ID < 0 {
				id, ok := lookupOv(rec.URI)
				if !ok {
					return fmt.Errorf("%s%s of unknown URI %q", at(i), rec.Kind, rec.URI)
				}
				rec.ID = id
			}
			if !isLiveOv(rec.ID) {
				return fmt.Errorf("%s%s of unknown description %d", at(i), rec.Kind, rec.ID)
			}
			if rec.Kind == OpDelete {
				free(rec.ID)
			}
		}
	}
	return nil
}

// validSource mirrors entity.Collection.Add's source check for a stream of
// the given kind.
func validSource(kind entity.Kind, source int) error {
	switch kind {
	case entity.CleanClean:
		if source != 0 && source != 1 {
			return fmt.Errorf("clean-clean stream requires source 0 or 1, got %d", source)
		}
	default:
		if source != 0 {
			return fmt.Errorf("dirty stream requires source 0, got %d", source)
		}
	}
	return nil
}

// applyRecords applies validated records in order — ApplyBatch's,
// ApplyRouted's and journal replay's (replay true) — each maximal run of
// full inserts with consecutive handles through insertRun; every other
// record is a run of one. On replay a direct insert's handle gap burns
// slots (see burnSlot). The routed forms apply as ApplyRouted describes. A
// non-nil neighbors receives each record's target's match neighbors as of
// the end of its run. It reports the index of the failing record or run.
// Callers hold r.mu.
func (r *Resolver) applyRecords(recs []Record, replay bool, neighbors [][]entity.ID) (int, error) {
	for i := 0; i < len(recs); {
		rec, j := &recs[i], i+1
		var err error
		switch {
		case rec.Kind != OpInsert && rec.Kind != OpUpdate && rec.Kind != OpDelete:
			err = fmt.Errorf("incremental: batch record has kind %v", rec.Kind)
		case rec.Advance && rec.Kind == OpInsert:
			r.burnSlot()
			r.stats.Inserts++
		case rec.Advance && rec.Kind == OpUpdate:
			r.stats.Updates++
		case rec.Kind == OpInsert:
			if rec.ID < r.coll.Len() || (!replay && rec.ID != r.coll.Len()) {
				return i, fmt.Errorf("incremental: insert assigns handle %d but %d slots exist", rec.ID, r.coll.Len())
			}
			for r.coll.Len() < rec.ID {
				r.burnSlot()
			}
			for j < len(recs) && recs[j].Kind == OpInsert && !recs[j].Advance && recs[j].ID == recs[j-1].ID+1 {
				j++
			}
			err = r.insertRun(recs[i:j])
		case r.isLive(rec.ID) && rec.Kind == OpUpdate:
			err = r.applyUpdate(rec.ID, rec.Attrs)
		case r.isLive(rec.ID):
			r.applyDelete(rec.ID)
		case rec.Seq == 0:
			err = fmt.Errorf("incremental: %s of handle %d, which is not live", rec.Kind, rec.ID)
		case rec.Kind == OpUpdate:
			err = r.materialize(rec)
		default:
			r.stats.Deletes++ // a routed delete of a placeholder or dead slot
		}
		if err != nil {
			return i, err
		}
		for k := i; k < j && neighbors != nil; k++ {
			neighbors[k] = r.dyn.Graph().Neighbors(recs[k].ID)
		}
		if seq := recs[j-1].Seq; seq != 0 {
			r.lastSeq = seq
		}
		i = j
	}
	return 0, nil
}

// Lookup returns the handle of the live description with the given URI.
func (r *Resolver) Lookup(uri string) (entity.ID, bool) {
	r.rlock()
	defer r.mu.RUnlock()
	id, ok := r.byURI[uri]
	return id, ok
}

// isLive reports whether id is a live slot. Callers hold r.mu.
func (r *Resolver) isLive(id entity.ID) bool {
	return id >= 0 && id < len(r.live) && r.live[id]
}

// retire removes id's block membership and match edges, splitting its
// cluster if it was an articulation point. With meta-blocking the removal
// also flows into the weighted graph (through the membership observer) and
// invalidates the cached matcher decisions of id's pairs, since a later
// update may re-key the same handle with different content. Callers hold
// r.mu.
func (r *Resolver) retire(id entity.ID) {
	r.blocks.Remove(id)
	r.dyn.RemoveNode(id)
	if r.weighted != nil {
		r.simCache.Invalidate(id)
		r.metaDirty = true
	}
}

// frontierChunk bounds the pairs index hands the matcher pool at once.
const frontierChunk = 4096

// index keys the (live, current) descriptions [lo, hi) in handle order and
// resolves their frontier in one pass: each distinct pair of a record x of
// the range with a co-blocked record outside it or below x — exactly what
// resolving them one at a time compares. Walk and DeltaFilter run on this
// goroutine, comparisons on the pool over one row map, so each member is
// tokenized once. Under meta-blocking matching is instead deferred to the
// next read's reconcile (see meta.go). Matching runs under a context that
// never cancels, as an admitted operation always completes. Callers hold
// r.mu.
func (r *Resolver) index(lo, hi entity.ID) error {
	for id := lo; id < hi; id++ {
		d := r.coll.Get(id)
		if err := r.blocks.Add(id, d.Source, r.keyer(d)); err != nil {
			return fmt.Errorf("incremental: %w", err)
		}
	}
	if r.weighted != nil {
		r.metaDirty = true
		return nil
	}
	var rows map[entity.ID][]string
	pairs := r.frontier[:0]
	for x := lo; x < hi; x++ {
		var claim func(string, *entity.Description) bool
		if r.cfg.DeltaFilter != nil {
			claim = r.cfg.DeltaFilter(r.coll.Get(x))
		}
		r.walk(x, hi, func(key string, y entity.ID) bool {
			if claim != nil && !claim(key, r.coll.Get(y)) {
				return false
			}
			pairs = append(pairs, entity.NewPair(x, y))
			return true
		})
		if len(pairs) < frontierChunk && (x < hi-1 || len(pairs) == 0) {
			continue
		}
		if rows == nil {
			rows = make(map[entity.ID][]string, len(pairs)+1)
		}
		out, err := matching.ResolvePairsRows(context.Background(), r.coll, pairs, r.cfg.Matcher, r.cfg.Workers, rows)
		if err != nil {
			return fmt.Errorf("incremental: delta matching: %w", err)
		}
		r.stats.Comparisons += out.Comparisons
		out.Matches.Each(func(p entity.Pair) bool {
			r.dyn.AddEdge(p.A, p.B, 1)
			return true
		})
		pairs = pairs[:0]
	}
	r.frontier = pairs
	return nil
}

// walk offers visit each record sharing a key with x and comparable to it,
// except x and the records in (x, hi), which meet x in their own walk.
// Keys go ascending and a candidate visit takes (returns true for) is not
// offered again, so one always taken is visited under its smallest shared
// key. The stamps are shared: callers hold r.mu exclusively.
func (r *Resolver) walk(x, hi entity.ID, visit func(key string, y entity.ID) bool) {
	if n := r.coll.Len(); len(r.stamp) < n {
		r.stamp = append(r.stamp, make([]uint64, n-len(r.stamp))...)
	}
	r.epoch++ // 64 bits: never wraps
	clean := r.cfg.Kind == entity.CleanClean
	src := r.coll.Get(x).Source
	for _, key := range r.blocks.Keys(x) {
		for _, p := range r.blocks.Postings(key) {
			y := p.Doc
			if y == x || (y > x && y < hi) || r.stamp[y] == r.epoch || (clean && r.coll.Get(y).Source == src) {
				continue
			}
			if visit(key, y) {
				r.stamp[y] = r.epoch
			}
		}
	}
}

// rlock takes the shared lock for a read that needs no reconcile. The
// caller must release with r.mu.RUnlock.
func (r *Resolver) rlock() {
	r.mu.RLock()
	r.readLocks.Add(1)
	r.sharedReads.Add(1)
}

// lockShared acquires the lock in shared mode with the reconcile-then-share
// discipline: on nil return the caller holds the read lock over clean state
// (no deferred meta-blocking work pending) and must release with
// r.mu.RUnlock. When the graph is dirty the reader upgrades — releases the
// read lock, reconciles under the write lock, retries. The upgrade is
// single-flight in effect: a read stampede on a dirty graph queues on the
// write lock, the first holder pays the one delta-proportional reconcile
// (riding the DeltaPruner), and everyone behind it finds the graph clean
// and proceeds under the shared lock, so N concurrent readers cost one
// reconcile, not N.
func (r *Resolver) lockShared(ctx context.Context) error {
	reconciled := false
	for {
		r.mu.RLock()
		r.readLocks.Add(1)
		// A diverged journal poisons reconciling reads (mirror reconcile's
		// rule); graceful closure does not — a closed resolver still serves.
		if r.broken != nil && r.broken != errClosed {
			err := r.broken
			r.mu.RUnlock()
			return err
		}
		if r.weighted == nil || !r.metaDirty {
			if !reconciled {
				r.sharedReads.Add(1)
			}
			return nil
		}
		r.mu.RUnlock()
		r.mu.Lock()
		err := r.reconcile(ctx)
		r.mu.Unlock()
		if err != nil {
			return err
		}
		reconciled = true
	}
}

// Stats returns a snapshot of the resolver's counters, reconciling any
// deferred meta-blocking work first. The error is the reconcile's — a
// poisoned journal surfaces as ErrBroken.
func (r *Resolver) Stats() (Stats, error) {
	if err := r.lockShared(context.Background()); err != nil {
		return Stats{}, err
	}
	defer r.mu.RUnlock()
	st := r.stats
	st.Live = r.liveCount
	st.Matches = r.dyn.NumEdges()
	st.Clusters = r.dyn.NumClusters()
	if r.weighted != nil {
		st.CandidatePairs = r.weighted.NumPairs()
		st.KeptPairs = len(r.lastKept)
	}
	return st, nil
}

// Matches returns the current match pairs over internal handles,
// reconciling any deferred meta-blocking work first.
func (r *Resolver) Matches() (*entity.Matches, error) {
	if err := r.lockShared(context.Background()); err != nil {
		return nil, err
	}
	defer r.mu.RUnlock()
	return r.dyn.Matches(), nil
}

// Clusters returns the current non-singleton entity clusters over internal
// handles, in the deterministic order of entity.UnionFind.Clusters,
// reconciling any deferred meta-blocking work first.
func (r *Resolver) Clusters() ([][]entity.ID, error) {
	if err := r.lockShared(context.Background()); err != nil {
		return nil, err
	}
	defer r.mu.RUnlock()
	return r.dyn.Clusters(), nil
}

// ClusterOf returns id's entity cluster, ascending, or nil when id matches
// nothing — O(cluster size) — reconciling deferred meta-blocking work first.
func (r *Resolver) ClusterOf(id entity.ID) ([]entity.ID, error) {
	if err := r.lockShared(context.Background()); err != nil {
		return nil, err
	}
	defer r.mu.RUnlock()
	return r.dyn.ClusterOf(id), nil
}

// Blocks materializes the current block collection — identical to what the
// configured blocker would build over the live descriptions.
func (r *Resolver) Blocks() *blocking.Blocks {
	r.rlock()
	defer r.mu.RUnlock()
	return r.blocks.Blocks()
}

// Get returns a copy of the live description with the given handle.
func (r *Resolver) Get(id entity.ID) (*entity.Description, bool) {
	r.rlock()
	defer r.mu.RUnlock()
	if !r.isLive(id) {
		return nil, false
	}
	return r.coll.Get(id).Clone(), true
}

// Counters returns the resolver's raw operation and comparison counters
// plus the live-description count WITHOUT reconciling deferred
// meta-blocking work — unlike Stats it never mutates state, so a
// coordinator can aggregate shard counters without triggering shard-local
// pruning. The reconcile-dependent fields (Matches, Clusters,
// CandidatePairs, KeptPairs) are left zero.
func (r *Resolver) Counters() Stats {
	r.rlock()
	defer r.mu.RUnlock()
	st := r.stats
	st.Live = r.liveCount
	return st
}

// Slots returns the number of handle slots the resolver has assigned —
// live, dead and burned alike. This is the next insert's handle, which is
// NOT derivable from Counters(): a slot burned on replay (see burnSlot)
// counts as no insert.
func (r *Resolver) Slots() int {
	r.rlock()
	defer r.mu.RUnlock()
	return r.coll.Len()
}

// MatchEdges returns the resolver's current match edges sorted by (A, B),
// without reconciling deferred meta-blocking work — the raw shard-local
// edge set a coordinator unions into its global match graph.
func (r *Resolver) MatchEdges() []graph.Edge {
	r.rlock()
	defer r.mu.RUnlock()
	return r.dyn.SnapshotEdges()
}

// EachSlot enumerates every collection slot in handle order — dead slots
// (deleted descriptions, burned inserts) included, with live=false and the
// description's content unspecified — stopping early if fn returns false.
// The description handed to fn is the resolver's own; callers must not
// retain or mutate it. No deferred work is reconciled. This is the bulk
// state feed the coordinator builds a shard's bootstrap image from.
func (r *Resolver) EachSlot(fn func(id entity.ID, live bool, d *entity.Description) bool) {
	r.rlock()
	defer r.mu.RUnlock()
	for _, d := range r.coll.All() {
		if !fn(d.ID, r.live[d.ID], d) {
			return
		}
	}
}

// Snapshot materializes the resolver's state as a fresh batch-shaped
// result: a collection holding clones of the live descriptions with dense
// IDs in insertion order, and the match set remapped into that ID space.
// Running a batch pipeline with the same blocker and matcher over the
// returned collection produces exactly the returned matches — the
// differential-equivalence contract the test suite enforces.
func (r *Resolver) Snapshot() (*entity.Collection, *entity.Matches, error) {
	if err := r.lockShared(context.Background()); err != nil {
		return nil, nil, err
	}
	defer r.mu.RUnlock()
	out := entity.NewCollection(r.cfg.Kind)
	remap := make(map[entity.ID]entity.ID, r.liveCount)
	for _, d := range r.coll.All() {
		if !r.live[d.ID] {
			continue
		}
		cp := d.Clone()
		remap[d.ID] = out.MustAdd(cp)
	}
	matches := entity.NewMatches()
	r.dyn.Graph().EachEdge(func(e graph.Edge) bool {
		matches.Add(remap[e.A], remap[e.B])
		return true
	})
	return out, matches, nil
}
