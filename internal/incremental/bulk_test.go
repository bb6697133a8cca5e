package incremental_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"entityres/internal/blocking"
	"entityres/internal/entity"
	"entityres/internal/incremental"
	"entityres/internal/matching"
	"entityres/internal/metablocking"
)

// The bulk-apply differential property: ApplyBatch resolves each run of
// inserts in one frontier pass, and that pass must compare exactly the
// pairs — and reach exactly the state — of applying the same records one
// at a time: matches, comparison counts, every handle's match neighbours,
// clusters and per-handle cluster reads.

// halfClaim is a DeltaFilter in the shape of a shard's claim filter: a
// pair is claimed only under its smallest shared key, and only when that
// key hashes into the first of two halves of the key space.
func halfClaim(blocker blocking.StreamableBlocker) func(d *entity.Description) func(string, *entity.Description) bool {
	keyer := blocker.StreamKeyer()
	return func(d *entity.Description) func(string, *entity.Description) bool {
		dKeys := blocking.DistinctKeys(keyer(d))
		return func(key string, other *entity.Description) bool {
			oKeys := blocking.DistinctKeys(keyer(other))
			for _, k := range dKeys {
				if _, shared := slices.BinarySearch(oKeys, k); shared {
					h := fnv.New32a()
					h.Write([]byte(k))
					return k == key && h.Sum32()%2 == 0
				}
			}
			return false
		}
	}
}

// assertSameReads compares every read the bulk guarantee covers, on both
// resolvers in the same order (reads reconcile under meta-blocking).
func assertSameReads(t *testing.T, got, want *incremental.Resolver) {
	t.Helper()
	assertSameResolverState(t, got, want)
	if g, w := fmt.Sprint(mustClusters(t, got)), fmt.Sprint(mustClusters(t, want)); g != w {
		t.Fatalf("clusters diverge:\ngot  %s\nwant %s", g, w)
	}
	if got.Slots() != want.Slots() {
		t.Fatalf("slots diverge: %d vs %d", got.Slots(), want.Slots())
	}
	for id := range want.Slots() {
		if g, w := got.MatchNeighbors(id), want.MatchNeighbors(id); !slices.Equal(g, w) {
			t.Fatalf("MatchNeighbors(%d) = %v, want %v", id, g, w)
		}
		g, err := got.ClusterOf(id)
		if err != nil {
			t.Fatal(err)
		}
		w, err := want.ClusterOf(id)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(g, w) {
			t.Fatalf("ClusterOf(%d) = %v, want %v", id, g, w)
		}
	}
}

// bulkScenario is one bulk-apply differential scenario.
type bulkScenario struct {
	name    string
	kind    entity.Kind
	mix     opMix
	size    int // batch size; 0 is one batch holding the whole script
	filter  bool
	meta    *metablocking.MetaBlocker
	durable bool
}

// TestBulkApplyDifferential runs each scenario's script through ApplyBatch
// and through the one-at-a-time Apply loop, comparing every read after
// each batch; the durable scenario also reopens the batched resolver,
// whose journal then holds only batch records, and compares again.
func TestBulkApplyDifferential(t *testing.T) {
	insertOnly := opMix{name: "insert-only", insert: 1}
	cbs := &metablocking.MetaBlocker{Weight: metablocking.CBS, Prune: metablocking.WEP}
	scenarios := []bulkScenario{
		{name: "dirty/insert-only/one-batch", kind: entity.Dirty, mix: insertOnly},
		{name: "dirty/insert-only/one-batch/filter", kind: entity.Dirty, mix: insertOnly, filter: true},
		{name: "dirty/churn/b24", kind: entity.Dirty, mix: opMixes[1], size: 24},
		{name: "dirty/churn/b24/filter", kind: entity.Dirty, mix: opMixes[1], size: 24, filter: true},
		{name: "clean-clean/insert-only/one-batch", kind: entity.CleanClean, mix: insertOnly},
		{name: "clean-clean/churn/b24", kind: entity.CleanClean, mix: opMixes[1], size: 24},
		{name: "clean-clean/delete-heavy/b16/filter", kind: entity.CleanClean, mix: opMixes[2], size: 16, filter: true},
		{name: "dirty/churn/b24/meta", kind: entity.Dirty, mix: opMixes[1], size: 24, meta: cbs},
		{name: "dirty/churn/b24/filter/durable", kind: entity.Dirty, mix: opMixes[1], size: 24, filter: true, durable: true},
	}
	for i, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			runBulkScenario(t, sc, int64(501+i))
		})
	}
}

func runBulkScenario(t *testing.T, sc bulkScenario, seed int64) {
	ctx := context.Background()
	blocker := &blocking.TokenBlocking{}
	cfg := incremental.Config{
		Kind: sc.kind, Blocker: blocker, Workers: 2, Meta: sc.meta,
		Matcher: &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5},
	}
	if sc.filter {
		cfg.DeltaFilter = halfClaim(blocker)
	}
	ops := 180
	if sc.mix.update+sc.mix.delete == 0 {
		ops = len(pool(t, sc.kind, seed)) // every description, inserted once
	}
	script := generateScript(t, sc.kind, seed, ops, sc.mix)
	size := sc.size
	if size == 0 {
		size = len(script)
	}
	batched, err := incremental.New(cfg)
	dir := t.TempDir()
	if sc.durable {
		cfg.Durable = incremental.DurableOptions{SnapshotEvery: 1 << 20, NoSync: true}
		batched, err = incremental.OpenResolver(dir, cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	ref, err := incremental.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// sameBatchRewrites counts inserts that a later record of their own
	// batch updates or deletes — the run boundary the scenarios must reach.
	sameBatchRewrites, batches := 0, 0
	for at := 0; at < len(script); at += size {
		chunk := script[at:min(at+size, len(script))]
		inserted := map[string]bool{}
		for _, op := range chunk {
			if op.Kind == incremental.OpInsert {
				inserted[op.URI] = true
			} else if inserted[op.URI] {
				sameBatchRewrites++
			}
		}
		if err := batched.ApplyBatch(ctx, incremental.OpRecords(chunk)); err != nil {
			t.Fatalf("batch at op %d: %v", at, err)
		}
		batches++
		for i, op := range chunk {
			if err := ref.Apply(ctx, op); err != nil {
				t.Fatalf("op %d: %v", at+i, err)
			}
		}
		assertSameReads(t, batched, ref)
	}
	if sc.mix.update+sc.mix.delete > 0 && sameBatchRewrites == 0 {
		t.Fatal("no batch updates or deletes one of its own inserts")
	}
	if mustStats(t, ref).Comparisons == 0 {
		t.Fatal("the scenario compared nothing")
	}
	if !sc.filter {
		// Unfiltered, both equal a from-scratch batch run.
		checkDifferential(t, batched, diffConfig{kind: sc.kind, blocker: blocker, meta: sc.meta}, cfg.Matcher, len(script))
	}
	if !sc.durable {
		return
	}
	batched.Abandon()
	reopened, err := incremental.OpenResolver(dir, cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer reopened.Close()
	if got := reopened.Recovery().ReplayedRecords; got != batches {
		t.Fatalf("reopen replayed %d records, want the %d batch records", got, batches)
	}
	assertSameReads(t, reopened, ref)
}
