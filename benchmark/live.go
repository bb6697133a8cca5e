package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"entityres/er"
	"entityres/internal/wal"
)

// live and live-meta drive one resolver with one closed-loop client and the
// same operation stream; only the deployment differs. live is durable and
// eager: every write blocks, matches and fsyncs one journal record, and
// reads are nearly free. live-meta is in memory under live meta-blocking:
// writes are integer graph deltas and each read reconciles. A change that
// moves work from writes to reads, or back, wins on one and loses on the
// other.

var liveWorkload = &workload{
	name:      "live",
	why:       "one closed-loop client on a durable single-node resolver (fsync on, no meta): writes block, match eagerly and journal; reads are nearly free",
	writeTail: 99,
	readTail:  99,
	round: func(ctx context.Context, e *env, tr *tracer, check bool) (*round, error) {
		return liveRound(ctx, e, tr, check, false)
	},
	attribute: liveWALAppends,
}

var liveMetaWorkload = &workload{
	name:      "live-meta",
	why:       "the same op stream on an in-memory resolver under live CBS/WEP meta-blocking: writes are graph deltas, each read reconciles",
	writeTail: 99,
	readTail:  99,
	round: func(ctx context.Context, e *env, tr *tracer, check bool) (*round, error) {
		return liveRound(ctx, e, tr, check, true)
	},
}

// liveMatcher is the match decision of every live deployment and of the
// batch oracle they are checked against.
func liveMatcher() *er.Matcher {
	return &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: 0.5}
}

type opKind int

const (
	opInsert opKind = iota
	opUpdate
	opDelete
	opLookup
	opCluster
)

// spanNames are the span (and per-layer metric) names of the resolver calls.
var spanNames = [...]string{"incremental.insert", "incremental.update", "incremental.delete", "incremental.lookup", "incremental.cluster"}

// liveOp is one planned operation on record rec of the corpus.
type liveOp struct {
	kind  opKind
	rec   int
	attrs []er.Attribute // update payload
}

// livePlan is the seeded input of a live round: the corpus, how much of it
// is preloaded, the operation stream, and what must be true afterwards.
type livePlan struct {
	recs    []corpusRecord
	preload int
	ops     []liveOp
	// final holds each record's attributes once the stream has run, nil
	// for a deleted record; truth pairs the surviving duplicates.
	final [][]er.Attribute
	truth [][2]int
	// userBytes is the payload the mutations carry, the base of
	// wal.bytes_per_user_byte.
	userBytes int64
}

// planLive generates the corpus and schedules the stream: inserts of the
// records that are not preloaded, interleaved with updates (15 % of
// mutations) and deletes (5 %) on random live records, and one read per four
// inserts — 15 of 16 plain lookups, 1 of 16 with the full cluster. With
// mutations 0 the first half of the corpus is preloaded and the stream
// inserts the second half (live, live-meta); otherwise the stream is that
// many mutations long and everything it cannot insert is preloaded (serve).
func planLive(seed int64, entities, mutations int) (*livePlan, error) {
	c := newCorpus(seed, entities)
	p := &livePlan{recs: c.All()}
	if err := checkBoundedHead(p.recs); err != nil {
		return nil, err
	}
	p.preload = len(p.recs) / 2
	if mutations > 0 {
		if p.preload = len(p.recs) - mutations; p.preload < 1 {
			return nil, fmt.Errorf("corpus of %d records is too small for %d mutations", len(p.recs), mutations)
		}
	}
	p.final = make([][]er.Attribute, len(p.recs))
	rng := rand.New(rand.NewSource(seed ^ 0x6c697665))
	live := make([]int, p.preload)
	for i := range live {
		live[i] = i
		p.final[i] = p.recs[i].Attrs
	}
	payload := func(uri string, attrs []er.Attribute) {
		p.userBytes += int64(len(uri))
		for _, a := range attrs {
			p.userBytes += int64(len(a.Name) + len(a.Value))
		}
	}
	inserts, reads, done := 0, 0, 0
	for next := p.preload; next < len(p.recs) && (mutations == 0 || done < mutations); done++ {
		switch x := rng.Float64(); {
		case x < 0.80:
			p.ops = append(p.ops, liveOp{kind: opInsert, rec: next})
			p.final[next] = p.recs[next].Attrs
			payload(p.recs[next].URI, p.recs[next].Attrs)
			live = append(live, next)
			next++
			if inserts++; inserts%4 == 0 {
				kind := opLookup
				if reads++; reads%16 == 0 {
					kind = opCluster
				}
				p.ops = append(p.ops, liveOp{kind: kind, rec: live[rng.Intn(len(live))]})
			}
		case x < 0.95:
			rec := live[rng.Intn(len(live))]
			attrs := c.Rerender(p.recs[rec].Entity)
			p.ops = append(p.ops, liveOp{kind: opUpdate, rec: rec, attrs: attrs})
			p.final[rec] = attrs
			payload(p.recs[rec].URI, attrs)
		default:
			k := rng.Intn(len(live))
			rec := live[k]
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			p.ops = append(p.ops, liveOp{kind: opDelete, rec: rec})
			p.final[rec] = nil
			payload(p.recs[rec].URI, nil)
		}
	}
	byURI := make(map[string]int, len(p.recs))
	for i, r := range p.recs {
		byURI[r.URI] = i
	}
	for i, r := range p.recs {
		if r.MatchOf != "" && p.final[i] != nil && p.final[byURI[r.MatchOf]] != nil {
			p.truth = append(p.truth, [2]int{byURI[r.MatchOf], i})
		}
	}
	return p, nil
}

// insertOps renders recs as URI-addressed inserts, the preload batch.
func insertOps(recs []corpusRecord) []er.StreamOp {
	ops := make([]er.StreamOp, len(recs))
	for i, r := range recs {
		ops[i] = er.StreamOp{Kind: er.StreamInsert, URI: r.URI, Attrs: append([]er.Attribute(nil), r.Attrs...)}
	}
	return ops
}

func liveConfig(dir string, meta bool, workers int) er.Config {
	cfg := er.Config{Kind: er.Dirty, Blocker: &er.TokenBlocking{}, Matcher: liveMatcher(), Workers: workers, Dir: dir}
	if meta {
		cfg.Meta = &er.MetaBlocker{Weight: er.CBS, Prune: er.WEP}
	}
	return cfg
}

// liveRound plans the stream, opens the deployment and preloads the first
// half (set-up), then times the closed-loop client issuing the rest.
func liveRound(ctx context.Context, e *env, tr *tracer, check, meta bool) (*round, error) {
	t0 := time.Now()
	plan, err := planLive(e.seed, e.sizes.liveEntities, 0)
	if err != nil {
		return nil, err
	}
	dir := ""
	if !meta {
		if dir, err = os.MkdirTemp(e.workdir, "live-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	cfg := liveConfig(dir, meta, e.workers)
	res, err := er.Open(ctx, cfg)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			res.Close() // error paths only
		}
	}()
	if err := res.ApplyBatch(ctx, insertOps(plan.recs[:plan.preload])); err != nil {
		return nil, err
	}
	ids := make([]er.ID, len(plan.recs))
	for i := 0; i < plan.preload; i++ {
		q, err := res.Query(ctx, er.Query{URI: plan.recs[i].URI})
		if err != nil {
			return nil, err
		}
		ids[i] = q.ID
	}
	before, err := res.Stats()
	if err != nil {
		return nil, err
	}
	perfBefore := res.(er.PerfReporter).Perf()
	bytesBefore := dirBytes(dir)
	r := &round{setupS: time.Since(t0).Seconds()}
	runtime.GC() // every round starts its timed region from a collected heap

	var sampler *heapSampler
	if tr != nil {
		sampler = startHeapSampler()
	}
	root := tr.begin("loadgen.client", -1)
	mem := startMem()
	start := time.Now()
	for _, op := range plan.ops {
		rec := plan.recs[op.rec]
		s := tr.begin(spanNames[op.kind], root)
		t := time.Now()
		switch op.kind {
		case opInsert:
			ids[op.rec], err = res.Insert(ctx, &er.Description{URI: rec.URI, Attrs: append([]er.Attribute(nil), rec.Attrs...)})
		case opUpdate:
			err = res.Update(ctx, ids[op.rec], append([]er.Attribute(nil), op.attrs...))
		case opDelete:
			err = res.Delete(ctx, ids[op.rec])
		default:
			_, err = res.Query(ctx, er.Query{ID: ids[op.rec], Cluster: op.kind == opCluster})
		}
		us := time.Since(t).Seconds() * 1e6
		tr.end(s)
		r.attempted++
		if err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "live: %s of %s failed: %v\n", spanNames[op.kind], rec.URI, err)
			continue
		}
		if op.kind <= opDelete {
			r.writeUS = append(r.writeUS, us)
		} else {
			r.readUS = append(r.readUS, us)
		}
	}
	r.wallS = time.Since(start).Seconds()
	r.allocMB, _ = mem.stop()
	tr.end(root)
	r.units = float64(len(r.writeUS))
	perfAfter := res.(er.PerfReporter).Perf()

	if err := res.Flush(ctx); err != nil {
		return nil, err
	}
	after, err := res.Stats()
	if err != nil {
		return nil, err
	}
	// The oracle compares whole deployments, so the round reports the
	// comparisons of preload and stream together: the number a batch run
	// over the same history would be held against.
	r.comparisons = after.Comparisons
	pairs, err := livePairs(ctx, res, plan, ids)
	if err != nil {
		return nil, err
	}
	r.digest = pairDigest(plan, pairs)
	r.f1, r.recall = pairQuality(pairs, plan.truth)

	if tr != nil {
		r.layers = liveLayers(tr, plan, before, after, perfBefore, perfAfter, dir, bytesBefore)
		r.layers["process.peak_heap_mb"], r.layers["process.gc_pause_ms"] = sampler.finish()
		blockingLayers(plan, r)
	}

	if check {
		// The repo's oracle invariant: the live match set equals a batch
		// pipeline run over the surviving descriptions.
		want, err := oracleDigest(plan, cfg)
		if err != nil {
			return nil, err
		}
		if want != r.digest {
			return nil, fmt.Errorf("live matches differ from the batch oracle over the survivors: %s vs %s", r.digest, want)
		}
	}
	if !meta && (check || tr != nil) {
		// Crash and recover: abandon without sealing the journal, reopen
		// from disk, and the answers must be the same.
		res.(er.DurableReporter).Abandon()
		closed = true
		t := time.Now()
		reopened, err := er.Open(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("reopen after abandon: %w", err)
		}
		recovery := time.Since(t).Seconds()
		defer reopened.Close()
		pairs, err := livePairs(ctx, reopened, plan, ids)
		if err != nil {
			return nil, err
		}
		if got := pairDigest(plan, pairs); got != r.digest {
			return nil, fmt.Errorf("matches after recovery differ: %s vs %s", got, r.digest)
		}
		if tr != nil {
			r.layers["wal.recovery_s"] = recovery
			r.layers["wal.replayed_records"] = float64(reopened.(er.DurableReporter).Recovery()[0].ReplayedRecords)
		}
		return r, nil
	}
	closed = true
	return r, res.Close()
}

// livePairs reads the final match set back through the resolver: every
// surviving record's partners, as pairs of record indexes.
func livePairs(ctx context.Context, res er.Resolver, plan *livePlan, ids []er.ID) ([][2]int, error) {
	recOf := make(map[er.ID]int, len(ids))
	for i, id := range ids {
		if plan.final[i] != nil {
			recOf[id] = i
		}
	}
	var pairs [][2]int
	for i := range plan.recs {
		if plan.final[i] == nil {
			continue
		}
		q, err := res.Query(ctx, er.Query{ID: ids[i]})
		if err != nil {
			return nil, fmt.Errorf("query %s: %w", plan.recs[i].URI, err)
		}
		for _, other := range q.SameAs {
			k, ok := recOf[other]
			if !ok {
				return nil, fmt.Errorf("%s matches handle %d, which is not a surviving record", plan.recs[i].URI, other)
			}
			if i < k {
				pairs = append(pairs, [2]int{i, k})
			}
		}
	}
	return pairs, nil
}

// pairDigest is the sha256 over the sorted match pairs, by URI.
func pairDigest(plan *livePlan, pairs [][2]int) string {
	lines := make([]string, len(pairs))
	for i, p := range pairs {
		a, b := plan.recs[p[0]].URI, plan.recs[p[1]].URI
		if b < a {
			a, b = b, a
		}
		lines[i] = a + "\t" + b + "\n"
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// pairQuality scores found against truth with the repo's own pairwise
// evaluation, record indexes standing in for description IDs.
func pairQuality(found, truth [][2]int) (f1, recall float64) {
	matches := func(pairs [][2]int) *er.Matches {
		m := er.NewMatches()
		for _, p := range pairs {
			m.Add(er.ID(p[0]), er.ID(p[1]))
		}
		return m
	}
	prf := er.ComparePairs(matches(found), matches(truth))
	return prf.F1, prf.Recall
}

// survivors builds the collection the oracle runs over, and each
// description's record index.
func survivors(plan *livePlan) (*er.Collection, []int) {
	c := er.NewCollection(er.Dirty)
	var recOf []int
	for i, attrs := range plan.final {
		if attrs != nil {
			c.MustAdd(&er.Description{URI: plan.recs[i].URI, Attrs: attrs})
			recOf = append(recOf, i)
		}
	}
	return c, recOf
}

// oracleDigest resolves the survivors with the batch pipeline configured
// like the deployment and digests its matches.
func oracleDigest(plan *livePlan, cfg er.Config) (string, error) {
	c, recOf := survivors(plan)
	p := er.Pipeline{Blocker: &er.TokenBlocking{}, Meta: cfg.Meta, Matcher: cfg.Matcher}
	res, err := p.Run(c)
	if err != nil {
		return "", err
	}
	var pairs [][2]int
	res.Matches.Each(func(m er.Pair) bool {
		pairs = append(pairs, [2]int{recOf[m.A], recOf[m.B]})
		return true
	})
	return pairDigest(plan, pairs), nil
}

// blockingLayers scores token blocking over the survivors, as a batch run
// would build it: its PC caps the recall any live deployment can reach.
func blockingLayers(plan *livePlan, r *round) {
	c, recOf := survivors(plan)
	descOf := make(map[int]er.ID, len(recOf))
	for id, rec := range recOf {
		descOf[rec] = id
	}
	truth := er.NewMatches()
	for _, p := range plan.truth {
		truth.Add(descOf[p[0]], descOf[p[1]])
	}
	bs, _ := (&er.TokenBlocking{}).Block(c) // token blocking cannot fail
	q := blockingQuality(c, bs, truth)
	r.layers["blocking.blocks"], r.layers["blocking.comparisons"] = float64(bs.Len()), float64(q.comparisons)
	r.layers["blocking.pc"], r.layers["blocking.pq"], r.layers["blocking.rr"] = q.pc, q.pq, q.rr
	if q.pc > 0 {
		r.layers["matching.recall_on_candidates"] = r.recall / q.pc
	}
}

// liveLayers reduces a traced round to its per-layer metrics: the p50 of
// every resolver call by kind from the spans, and the counters the
// deployment keeps.
func liveLayers(tr *tracer, plan *livePlan, before, after er.StreamingStats, perfBefore, perf er.StreamingPerf, dir string, bytesBefore int64) map[string]float64 {
	out := make(map[string]float64)
	inserts := 0
	for name, us := range tr.durationsUS() {
		if name == "loadgen.client" {
			continue
		}
		out[name+"_p50_us"] = median(us)
		if name == spanNames[opInsert] {
			inserts = len(us)
		}
	}
	streamed := after.Comparisons - before.Comparisons
	out["incremental.comparisons_per_insert"] = float64(streamed) / float64(inserts)
	out["incremental.reconciles"] = float64(perf.Reconciles - perfBefore.Reconciles)
	out["incremental.reconcile_examined"] = float64(perf.ReconcileExamined - perfBefore.ReconcileExamined)
	out["incremental.reconcile_evaluated"] = float64(perf.ReconcileEvaluated - perfBefore.ReconcileEvaluated)
	out["incremental.read_locks"] = float64(perf.ReadLocks - perfBefore.ReadLocks)
	out["incremental.shared_reads"] = float64(perf.SharedReads - perfBefore.SharedReads)
	out["matching.matches"] = float64(after.Matches)
	out["graph.clusters"] = float64(after.Clusters)
	out["metablocking.candidate_pairs"] = float64(after.CandidatePairs)
	out["metablocking.kept_pairs"] = float64(after.KeptPairs)
	if dir != "" {
		out["wal.journal_appends"] = float64(perf.JournalAppends - perfBefore.JournalAppends)
		out["wal.full_snapshots"] = float64(perf.FullSnapshots - perfBefore.FullSnapshots)
		out["wal.delta_snapshots"] = float64(perf.DeltaSnapshots - perfBefore.DeltaSnapshots)
		bytes := dirBytes(dir) - bytesBefore
		out["wal.bytes_written"] = float64(bytes)
		out["wal.bytes_per_user_byte"] = float64(bytes) / float64(plan.userBytes)
	}
	return out
}

// dirBytes is the size of every file under dir. Its growth over the timed
// region is what the journals and snapshots wrote and kept; a compaction
// that removes segments makes it an underestimate.
func dirBytes(dir string) int64 {
	var n int64
	if dir == "" {
		return 0
	}
	// A file that vanishes mid-walk (a compaction removing a segment) is
	// skipped, not an error.
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// liveWALAppends is live's extra leg: direct wal.Open/Append with fsync on,
// at the record size the stream averages, so the journal's share of a write
// can be read beside incremental.insert_p50_us.
func liveWALAppends(ctx context.Context, e *env, _ *round) (map[string]float64, error) {
	plan, err := planLive(e.seed, e.sizes.liveEntities, 0)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.workdir, "wal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, err
	}
	mutations := 0
	for _, op := range plan.ops {
		if op.kind <= opDelete {
			mutations++
		}
	}
	payload := make([]byte, plan.userBytes/int64(mutations))
	const appends = 256
	us := make([]float64, appends)
	for i := range us {
		t := time.Now()
		if _, err := log.Append(payload); err != nil {
			log.Close()
			return nil, err
		}
		us[i] = time.Since(t).Seconds() * 1e6
	}
	if err := log.Close(); err != nil {
		return nil, err
	}
	return map[string]float64{"wal.append_sync_p50_us": median(us)}, nil
}
