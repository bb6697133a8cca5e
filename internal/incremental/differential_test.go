package incremental_test

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"entityres/internal/blocking"
	"entityres/internal/core"
	"entityres/internal/datagen"
	"entityres/internal/entity"
	"entityres/internal/incremental"
	"entityres/internal/matching"
	"entityres/internal/metablocking"
)

// The differential property: after ANY sequence of insert/update/delete
// operations, the streaming resolver's match set and clusters are
// byte-identical to a from-scratch batch core.Pipeline run over the
// surviving descriptions. The tests below drive randomized op sequences
// (fixed seeds) across resolution kinds, blockers, worker counts and op
// mixes, and compare rendered state at checkpoints along the stream —
// not just at the end — so mid-stream divergence cannot hide behind a
// convergent tail.

// opMix weights the generator's choice between inserts, updates, deletes.
type opMix struct {
	name                   string
	insert, update, delete int // relative weights
}

var opMixes = []opMix{
	{name: "insert-heavy", insert: 7, update: 2, delete: 1},
	{name: "churn", insert: 4, update: 3, delete: 3},
	{name: "delete-heavy", insert: 5, update: 1, delete: 4},
}

// diffConfig is one differential scenario.
type diffConfig struct {
	kind    entity.Kind
	blocker blocking.StreamableBlocker
	workers int
	mix     opMix
	seed    int64
	ops     int
	// meta, when set, runs the scenario with live meta-blocking: the
	// resolver prunes its frontiers through the incrementally weighted
	// blocking graph, and the batch reference runs the same MetaBlocker.
	meta *metablocking.MetaBlocker
}

func (dc diffConfig) String() string {
	s := fmt.Sprintf("%s/%s/w%d/%s/seed%d", dc.kind, dc.blocker.Name(), dc.workers, dc.mix.name, dc.seed)
	if dc.meta != nil {
		s += "/" + dc.meta.Name()
	}
	return s
}

// pool generates the universe of descriptions the op stream draws from:
// a datagen collection with duplicates, so the stream contains genuine
// matches to discover, retire and rediscover.
func pool(t *testing.T, kind entity.Kind, seed int64) []*entity.Description {
	t.Helper()
	var c *entity.Collection
	var err error
	if kind == entity.CleanClean {
		c, _, err = datagen.GenerateCleanClean(datagen.Config{Seed: seed, Entities: 70, DupRatio: 0.7})
	} else {
		c, _, err = datagen.GenerateDirty(datagen.Config{Seed: seed, Entities: 70, DupRatio: 0.7, MaxDuplicates: 2})
	}
	if err != nil {
		t.Fatal(err)
	}
	return c.All()
}

// mutate derives a deterministic attribute rewrite for an update: a mix of
// the description's own attributes and a donor's, so updates move
// descriptions between blocks (and in and out of matches) realistically.
func mutate(rng *rand.Rand, own []entity.Attribute, donor []entity.Attribute) []entity.Attribute {
	out := make([]entity.Attribute, 0, len(own))
	for _, a := range own {
		if rng.Intn(3) == 0 && len(donor) > 0 {
			d := donor[rng.Intn(len(donor))]
			out = append(out, entity.Attribute{Name: a.Name, Value: d.Value})
		} else {
			out = append(out, a)
		}
	}
	if len(donor) > 0 && rng.Intn(2) == 0 {
		out = append(out, donor[rng.Intn(len(donor))])
	}
	return out
}

// renderState renders a match set and its clusters deterministically; two
// equal states render byte-identically.
func renderState(m *entity.Matches) string {
	ps := m.Pairs()
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].A != ps[j].A {
			return ps[i].A < ps[j].A
		}
		return ps[i].B < ps[j].B
	})
	return fmt.Sprintf("matches=%v\nclusters=%v\n", ps, m.Clusters())
}

// checkDifferential snapshots the resolver, runs the batch pipeline over
// the snapshot, and compares rendered matches and clusters byte for byte.
// Under meta-blocking it also pins the kept set: Stats().KeptPairs equals
// the batch run's block count, and RestructuredBlocks names the batch
// blocks' pairs in the batch order.
func checkDifferential(t *testing.T, r *incremental.Resolver, dc diffConfig, m *matching.Matcher, step int) {
	t.Helper()
	snap, matches := mustSnapshot(t, r)
	batch := &core.Pipeline{Blocker: dc.blocker, Meta: dc.meta, Matcher: m, Mode: core.Batch}
	res, err := batch.Run(snap)
	if err != nil {
		t.Fatalf("step %d: batch run: %v", step, err)
	}
	got, want := renderState(matches), renderState(res.Matches)
	if got != want {
		t.Fatalf("step %d: incremental state diverges from batch over %d live descriptions:\nincremental:\n%s\nbatch:\n%s",
			step, snap.Len(), got, want)
	}
	if dc.meta == nil {
		return
	}
	if kept := mustStats(t, r).KeptPairs; kept != res.Blocks.Len() {
		t.Fatalf("step %d: resolver keeps %d pairs, batch meta-blocking %d", step, kept, res.Blocks.Len())
	}
	// Snapshot IDs are compacted handles; the URIs map one onto the other.
	snapID := make(map[string]entity.ID, snap.Len())
	for _, d := range snap.All() {
		snapID[d.URI] = d.ID
	}
	toSnap := func(ids []entity.ID) []entity.ID {
		out := make([]entity.ID, len(ids))
		for i, id := range ids {
			d, live := r.Get(id)
			if !live {
				t.Fatalf("step %d: restructured block names dead handle %d", step, id)
			}
			out[i] = snapID[d.URI]
		}
		return out
	}
	rb := mustRestructuredBlocks(t, r)
	if rb.Len() != res.Blocks.Len() {
		t.Fatalf("step %d: RestructuredBlocks has %d blocks, batch %d", step, rb.Len(), res.Blocks.Len())
	}
	for i, b := range rb.All() {
		g := fmt.Sprint(toSnap(b.S0), toSnap(b.S1))
		w := res.Blocks.Get(i)
		if want := fmt.Sprint(w.S0, w.S1); g != want {
			t.Fatalf("step %d: restructured block %d holds %s, batch block holds %s", step, i, g, want)
		}
	}
}

// runDifferential drives one scenario.
func runDifferential(t *testing.T, dc diffConfig) {
	matcher := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
	r, err := incremental.New(incremental.Config{Kind: dc.kind, Blocker: dc.blocker, Matcher: matcher, Workers: dc.workers, Meta: dc.meta})
	if err != nil {
		t.Fatal(err)
	}
	descs := pool(t, dc.kind, dc.seed)
	rng := rand.New(rand.NewSource(dc.seed * 7919))
	ctx := context.Background()

	// liveIdx maps pool index → live handle.
	liveIdx := map[int]entity.ID{}
	var liveList []int // pool indices currently live, for random choice
	removeLive := func(pos int) {
		liveList[pos] = liveList[len(liveList)-1]
		liveList = liveList[:len(liveList)-1]
	}

	// chooseOp rolls an op kind honoring the mix, degrading gracefully at
	// the boundaries: with nothing live only insert is possible, with the
	// whole pool live insert is impossible.
	chooseOp := func() incremental.OpKind {
		if len(liveList) == 0 {
			return incremental.OpInsert
		}
		weights := [3]int{dc.mix.insert, dc.mix.update, dc.mix.delete}
		if len(liveList) == len(descs) {
			weights[0] = 0
		}
		roll := rng.Intn(weights[0] + weights[1] + weights[2])
		if roll < weights[0] {
			return incremental.OpInsert
		}
		if roll < weights[0]+weights[1] {
			return incremental.OpUpdate
		}
		return incremental.OpDelete
	}

	applied := 0
	for applied < dc.ops {
		switch chooseOp() {
		case incremental.OpInsert:
			// Insert a pool description that is not currently live.
			pi := rng.Intn(len(descs))
			if _, live := liveIdx[pi]; live {
				continue
			}
			id, err := r.Insert(ctx, descs[pi])
			if err != nil {
				t.Fatalf("op %d: insert: %v", applied, err)
			}
			liveIdx[pi] = id
			liveList = append(liveList, pi)
		case incremental.OpUpdate:
			pos := rng.Intn(len(liveList))
			pi := liveList[pos]
			donor := descs[rng.Intn(len(descs))]
			attrs := mutate(rng, descs[pi].Attrs, donor.Attrs)
			if err := r.Update(ctx, liveIdx[pi], attrs); err != nil {
				t.Fatalf("op %d: update: %v", applied, err)
			}
		default:
			pos := rng.Intn(len(liveList))
			pi := liveList[pos]
			if err := r.Delete(liveIdx[pi]); err != nil {
				t.Fatalf("op %d: delete: %v", applied, err)
			}
			delete(liveIdx, pi)
			removeLive(pos)
		}
		applied++
		// Checkpoints mid-stream and at the end.
		if applied%100 == 0 || applied == dc.ops {
			checkDifferential(t, r, dc, matcher, applied)
		}
	}

	st := mustStats(t, r)
	if st.Inserts+st.Updates+st.Deletes != int64(dc.ops) {
		t.Fatalf("applied %d ops, stats say %s", dc.ops, st)
	}
}

// TestDifferentialEquivalence is the acceptance matrix: ≥3 seeds ×
// ≥200-op sequences across op mixes, worker counts, kinds and blockers.
func TestDifferentialEquivalence(t *testing.T) {
	var configs []diffConfig
	// Seeds × mixes on the default configuration (dirty, token blocking,
	// pooled delta matching).
	for _, seed := range []int64{1, 2, 3} {
		for _, mix := range opMixes {
			configs = append(configs, diffConfig{
				kind: entity.Dirty, blocker: &blocking.TokenBlocking{},
				workers: 4, mix: mix, seed: seed, ops: 250,
			})
		}
	}
	// Sequential delta matching must agree with the pooled one.
	configs = append(configs, diffConfig{
		kind: entity.Dirty, blocker: &blocking.TokenBlocking{},
		workers: 1, mix: opMixes[1], seed: 4, ops: 250,
	})
	// Clean-clean streams: only cross-source pairs may match.
	configs = append(configs, diffConfig{
		kind: entity.CleanClean, blocker: &blocking.TokenBlocking{},
		workers: 4, mix: opMixes[1], seed: 5, ops: 250,
	})
	// Other streamable blockers.
	configs = append(configs, diffConfig{
		kind: entity.Dirty, blocker: &blocking.StandardBlocking{},
		workers: 4, mix: opMixes[1], seed: 6, ops: 200,
	})
	configs = append(configs, diffConfig{
		kind: entity.Dirty, blocker: &blocking.QGramsBlocking{Q: 3},
		workers: 4, mix: opMixes[0], seed: 7, ops: 200,
	})

	for _, dc := range configs {
		dc := dc
		t.Run(dc.String(), func(t *testing.T) {
			if testing.Short() && dc.seed > 3 {
				t.Skip("short mode runs the core seed matrix only")
			}
			t.Parallel()
			runDifferential(t, dc)
		})
	}
}

// TestDifferentialEquivalenceMetaBlocking extends the differential matrix
// to live meta-blocking: 3 seeds × {WEP, WNP} × {CBS, ECBS, JS} op streams
// (plus reciprocal-WNP, clean-clean and multi-worker probes), asserting
// after every checkpoint that the incrementally pruned-and-matched state
// equals a from-scratch batch run with the same MetaBlocker over the
// surviving descriptions. Weight thresholds (WEP's global mean, WNP's
// neighborhood means) shift with every insert, update and delete, so this
// is the test that catches any drift between the delta-maintained
// statistics and the batch accumulation.
func TestDifferentialEquivalenceMetaBlocking(t *testing.T) {
	var configs []diffConfig
	for si, seed := range []int64{21, 22, 23} {
		for _, w := range []metablocking.WeightScheme{metablocking.CBS, metablocking.ECBS, metablocking.JS} {
			for _, p := range []metablocking.PruneScheme{metablocking.WEP, metablocking.WNP} {
				configs = append(configs, diffConfig{
					kind: entity.Dirty, blocker: &blocking.TokenBlocking{},
					workers: 4, mix: opMixes[si%len(opMixes)], seed: seed, ops: 160,
					meta: &metablocking.MetaBlocker{Weight: w, Prune: p},
				})
			}
		}
	}
	// Reciprocal node pruning, clean-clean streams and the sequential
	// reconcile path each probe one extra dimension.
	configs = append(configs,
		diffConfig{
			kind: entity.Dirty, blocker: &blocking.TokenBlocking{},
			workers: 4, mix: opMixes[1], seed: 24, ops: 160,
			meta: &metablocking.MetaBlocker{Weight: metablocking.ECBS, Prune: metablocking.WNP, Reciprocal: true},
		},
		diffConfig{
			kind: entity.CleanClean, blocker: &blocking.TokenBlocking{},
			workers: 4, mix: opMixes[1], seed: 25, ops: 160,
			meta: &metablocking.MetaBlocker{Weight: metablocking.JS, Prune: metablocking.WEP},
		},
		diffConfig{
			kind: entity.Dirty, blocker: &blocking.StandardBlocking{},
			workers: 1, mix: opMixes[2], seed: 26, ops: 160,
			meta: &metablocking.MetaBlocker{Weight: metablocking.CBS, Prune: metablocking.WEP},
		},
	)
	for _, dc := range configs {
		dc := dc
		t.Run(dc.String(), func(t *testing.T) {
			if testing.Short() && dc.seed != 21 {
				t.Skip("short mode runs the first meta seed only")
			}
			t.Parallel()
			runDifferential(t, dc)
		})
	}
}
