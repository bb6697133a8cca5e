package incremental_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"entityres/internal/blocking"
	"entityres/internal/entity"
	"entityres/internal/incremental"
	"entityres/internal/matching"
	"entityres/internal/metablocking"
	"entityres/internal/wal"
)

// Every checkpoint writes a full snapshot, but directories written by older
// releases may hold chained delta snapshots: a full anchor plus delta links
// naming their parents. testdata/legacy-chain-{dirty,meta} are two such
// directories, written by such a release from generateScript streams (a
// token-blocking resolver, and the same under JS/WEP meta-blocking) with
// SnapshotEvery 10, hard-stopped after legacyOps operations with a WAL tail
// behind the chain tip. testdata/full-meta-v1 is the same meta stream shape
// written by a release whose full snapshots still stored the weighted
// blocking graph ("weighted") beside the decision cache and kept pairs:
// one such snapshot plus a WAL tail. The tests reopen copies of them: the
// chain or snapshot restores bit-exactly (the weighted graph re-derived
// from the restored membership), the first checkpoint collapses it into
// one full snapshot, a crash anywhere in that transition recovers,
// repeated crashes recover, and a missing link fails loudly. The fixtures
// cannot be regenerated (no writer remains), so generateScript and pool
// must keep producing the same streams for these seeds.

// legacyOps is how many script operations the fixtures hold;
// legacyScriptOps how many the tests run in total.
const legacyOps, legacyScriptOps = 83, 110

type legacyFixture struct {
	name, dir string
	seed      int64
	meta      *metablocking.MetaBlocker
	// chain marks a delta-chain fixture; the others hold one full snapshot.
	chain bool
}

var legacyFixtures = []legacyFixture{
	{name: "dirty", dir: "legacy-chain-dirty", seed: 66, chain: true},
	{name: "meta", dir: "legacy-chain-meta", seed: 67, chain: true, meta: &metablocking.MetaBlocker{Weight: metablocking.JS, Prune: metablocking.WEP}},
	{name: "full-meta", dir: "full-meta-v1", seed: 68, meta: &metablocking.MetaBlocker{Weight: metablocking.JS, Prune: metablocking.WEP}},
}

func (fx legacyFixture) config() incremental.Config {
	return incremental.Config{
		Kind: entity.Dirty, Blocker: &blocking.TokenBlocking{},
		Matcher: &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5},
		Workers: 1, Meta: fx.meta,
		Durable: incremental.DurableOptions{SnapshotEvery: 10, SegmentBytes: 1024, NoSync: true},
	}
}

func (fx legacyFixture) script(t *testing.T) []incremental.Op {
	return generateScript(t, entity.Dirty, fx.seed, legacyScriptOps, opMixes[0])
}

// copyDir copies the fixture into a fresh directory, so tests never write
// to testdata.
func (fx legacyFixture) copyDir(t *testing.T) string {
	t.Helper()
	src := filepath.Join("testdata", fx.dir)
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// reference returns an in-memory resolver that applied script[:n].
func (fx legacyFixture) reference(t *testing.T, script []incremental.Op, n int) *incremental.Resolver {
	t.Helper()
	cfg := fx.config()
	cfg.Durable = incremental.DurableOptions{}
	r, err := incremental.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	applyLegacy(t, r, script, 0, n)
	return r
}

// applyLegacy applies script[from:to] on the fixtures' read schedule — a
// reconciling read after every fourth operation. Reads mutate state under
// meta-blocking, so every resolver compared follows the same schedule.
func applyLegacy(t *testing.T, r *incremental.Resolver, script []incremental.Op, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := r.Apply(context.Background(), script[i]); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if (i+1)%4 == 0 {
			mustMatches(t, r)
		}
	}
}

// snapshotFormats returns the format field of every snapshot file in dir,
// in file order.
func snapshotFormats(t *testing.T, dir string) []int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "snapshot-*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	var formats []int
	for _, f := range files {
		payload, err := wal.ReadFileFramed(f)
		if err != nil {
			t.Fatal(err)
		}
		var head struct {
			Format int `json:"format"`
		}
		if err := json.Unmarshal(payload, &head); err != nil {
			t.Fatal(err)
		}
		formats = append(formats, head.Format)
	}
	return formats
}

// storesWeighted reports whether dir's snapshot still stores the weighted
// blocking graph, as older releases wrote it.
func storesWeighted(t *testing.T, dir string) bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "snapshot-*.snap"))
	if err != nil || len(files) != 1 {
		t.Fatalf("snapshot files = %v (%v)", files, err)
	}
	payload, err := wal.ReadFileFramed(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Weighted json.RawMessage `json:"weighted"`
		SimCache json.RawMessage `json:"sim_cache"`
		LastKept json.RawMessage `json:"last_kept"`
	}
	if err := json.Unmarshal(payload, &body); err != nil {
		t.Fatal(err)
	}
	return body.Weighted != nil && body.SimCache != nil && body.LastKept != nil
}

// TestDeltaChainRetentionAndRebase: a legacy chain or full snapshot reopens
// to exactly the state its stream built (meta-blocking's weighted graph
// re-derived from the restored membership included), stays on disk until
// the first checkpoint, and that checkpoint rebases it into one full
// snapshot that reopens to the same state as an uninterrupted run.
func TestDeltaChainRetentionAndRebase(t *testing.T) {
	for _, fx := range legacyFixtures {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			dir := fx.copyDir(t)
			formats := snapshotFormats(t, dir)
			if fx.chain && (len(formats) < 3 || formats[0] != 1 || formats[len(formats)-1] != 2) {
				t.Fatalf("fixture is not a full anchor plus delta links: formats %v", formats)
			}
			if !fx.chain && (len(formats) != 1 || formats[0] != 1 || !storesWeighted(t, dir)) {
				t.Fatalf("fixture is not one full snapshot storing the weighted graph: formats %v", formats)
			}
			script := fx.script(t)
			r, err := incremental.OpenResolver(dir, fx.config())
			if err != nil {
				t.Fatal(err)
			}
			if rec := r.Recovery(); !rec.Recovered || rec.SnapshotSegment == 0 || rec.ReplayedRecords == 0 {
				t.Fatalf("legacy chain recovery %+v, want the chain tip plus a replayed tail", rec)
			}
			ref := fx.reference(t, script, legacyOps)
			if st := mustStats(t, ref); st.Matches == 0 {
				t.Fatalf("fixture stream resolves no matches (%+v); it cannot pin the restored match state", st)
			}
			assertSameResolverState(t, r, ref)
			if fx.meta != nil {
				if g, w := mergedWeighted(t, r), mergedWeighted(t, ref); !reflect.DeepEqual(g, w) {
					t.Fatalf("re-derived weighted statistics diverge: %d blocks, %d pairs; want %d, %d",
						g.NumBlocks(), g.NumPairs(), w.NumBlocks(), w.NumPairs())
				}
				if g, w := renderBlocks(mustRestructuredBlocks(t, r)), renderBlocks(mustRestructuredBlocks(t, ref)); g != w {
					t.Fatalf("restructured blocks diverge on reopen:\ngot  %s\nwant %s", g, w)
				}
			}
			if got := snapshotFormats(t, dir); len(got) != len(formats) {
				t.Fatalf("reopen rewrote the chain before any checkpoint: %v -> %v", formats, got)
			}

			applyLegacy(t, r, script, legacyOps, legacyScriptOps)
			applyLegacy(t, ref, script, legacyOps, legacyScriptOps)
			if p := r.Perf(); p.FullSnapshots == 0 {
				t.Fatal("continuation never checkpointed")
			}
			if got := snapshotFormats(t, dir); len(got) != 1 || got[0] != 1 {
				t.Fatalf("after a checkpoint the directory holds snapshot formats %v, want one full snapshot", got)
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			reopened, err := incremental.OpenResolver(dir, fx.config())
			if err != nil {
				t.Fatal(err)
			}
			defer reopened.Close()
			assertSameResolverState(t, reopened, ref)
			if fx.meta != nil {
				if g, w := renderBlocks(mustRestructuredBlocks(t, reopened)), renderBlocks(mustRestructuredBlocks(t, ref)); g != w {
					t.Fatalf("restructured blocks diverge:\ngot  %s\nwant %s", g, w)
				}
			}
		})
	}
}

// TestChainedSnapshotBoundarySweep crashes at EVERY operation boundary after
// a legacy chain reopens — before the first checkpoint (the chain still on
// disk under a growing tail), exactly at it, and after it — tearing the WAL
// tail each time, and recovers bit-exactly at every one.
func TestChainedSnapshotBoundarySweep(t *testing.T) {
	fx := legacyFixtures[0]
	script := fx.script(t)
	ref := fx.reference(t, script, legacyOps)
	for k := legacyOps; k <= legacyScriptOps; k++ {
		if k > legacyOps {
			applyLegacy(t, ref, script, k-1, k)
		}
		dir := fx.copyDir(t)
		crashed, err := incremental.OpenResolver(dir, fx.config())
		if err != nil {
			t.Fatal(err)
		}
		applyLegacy(t, crashed, script, legacyOps, k)
		crashed.Abandon()
		tearTail(t, dir)
		r, err := incremental.OpenResolver(dir, fx.config())
		if err != nil {
			t.Fatalf("boundary %d: recovery: %v", k, err)
		}
		assertSameResolverState(t, r, ref)
		r.Close()
	}
}

// TestChainedSnapshotCrashChaos hard-stops a reopened legacy chain twice, at
// seeded random boundaries of the continuation, tearing the WAL tail each
// time: the resolver recovered from the first crash is the one crashed
// again, so recovery also runs over state that itself came out of a
// recovery. Each crash point and the end of the script match an
// uninterrupted run, restructured blocks included under meta-blocking.
func TestChainedSnapshotCrashChaos(t *testing.T) {
	for _, fx := range legacyFixtures {
		for seed := int64(1); seed <= 3; seed++ {
			fx, seed := fx, seed
			t.Run(fmt.Sprintf("%s/crashseed%d", fx.name, seed), func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(seed))
				k1 := legacyOps + 1 + rng.Intn(legacyScriptOps-legacyOps-1)
				k2 := k1 + 1 + rng.Intn(legacyScriptOps-k1)
				script := fx.script(t)
				ref := fx.reference(t, script, legacyOps)
				dir := fx.copyDir(t)
				r, err := incremental.OpenResolver(dir, fx.config())
				if err != nil {
					t.Fatal(err)
				}
				from := legacyOps
				for _, k := range []int{k1, k2} {
					applyLegacy(t, r, script, from, k)
					applyLegacy(t, ref, script, from, k)
					from = k
					r.Abandon()
					tearTail(t, dir)
					if r, err = incremental.OpenResolver(dir, fx.config()); err != nil {
						t.Fatalf("crash at op %d: recovery: %v", k, err)
					}
					if !r.Recovery().Recovered {
						t.Fatalf("crash at op %d: recovery found no state", k)
					}
					assertSameResolverState(t, r, ref)
				}
				defer r.Close()
				applyLegacy(t, r, script, from, legacyScriptOps)
				applyLegacy(t, ref, script, from, legacyScriptOps)
				assertSameResolverState(t, r, ref)
				if fx.meta != nil {
					if g, w := renderBlocks(mustRestructuredBlocks(t, r)), renderBlocks(mustRestructuredBlocks(t, ref)); g != w {
						t.Fatalf("restructured blocks diverge after crashes at ops %d and %d:\ngot  %s\nwant %s", k1, k2, g, w)
					}
				}
			})
		}
	}
}

// TestChainMissingLinkFailsLoudly: recovery walks the tip's parent chain;
// a missing link is a loud open error, never a silent partial restore.
func TestChainMissingLinkFailsLoudly(t *testing.T) {
	dir := legacyFixtures[0].copyDir(t)
	snaps, err := filepath.Glob(filepath.Join(dir, "snapshot-*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	// Remove a middle link (globs sort lexically = numerically here).
	missing := snaps[len(snaps)/2]
	if err := os.Remove(missing); err != nil {
		t.Fatal(err)
	}
	_, err = incremental.OpenResolver(dir, legacyFixtures[0].config())
	if err == nil {
		t.Fatalf("recovery silently succeeded with chain link %s missing", filepath.Base(missing))
	}
	if !strings.Contains(err.Error(), "chain link") {
		t.Fatalf("broken chain reported as %v, want a chain-link error", err)
	}
}

// TestCheckpointGoldenBytes: a fixed non-meta op stream checkpoints to
// exactly the bytes testdata/checkpoint-dirty-v1.json holds, written by a
// release whose snapshots still stored the weighted blocking graph — so
// dropping that graph left every non-meta checkpoint byte-identical.
func TestCheckpointGoldenBytes(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "checkpoint-dirty-v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := legacyFixtures[0].config()
	cfg.Durable = incremental.DurableOptions{SnapshotEvery: -1, NoSync: true}
	dir := t.TempDir()
	r, err := incremental.OpenResolver(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	applyLegacy(t, r, generateScript(t, entity.Dirty, 70, 80, opMixes[0]), 0, 80)
	if err := r.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snapshot-*.snap"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshot files: %v", err)
	}
	got, err := wal.ReadFileFramed(snaps[len(snaps)-1])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("checkpoint bytes diverge from the golden image:\ngot  %s\nwant %s", got, want)
	}
}
