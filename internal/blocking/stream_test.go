package blocking

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"entityres/internal/datagen"
	"entityres/internal/entity"
)

// streamBlockers are the blockers that support incremental maintenance.
func streamBlockers() []StreamableBlocker {
	return []StreamableBlocker{
		&TokenBlocking{},
		&StandardBlocking{},
		&QGramsBlocking{Q: 3},
	}
}

// renderBlocks prints a block collection in its deterministic order so two
// collections can be compared byte-for-byte.
func renderBlocks(bs *Blocks) string {
	out := ""
	for _, b := range bs.All() {
		out += fmt.Sprintf("%q %v %v\n", b.Key, b.S0, b.S1)
	}
	return out
}

// TestBlockIndexMatchesBatchBuild maintains a BlockIndex under random
// add/remove/re-add churn and checks the materialized collection equals the
// batch build over the surviving descriptions at every checkpoint.
func TestBlockIndexMatchesBatchBuild(t *testing.T) {
	for _, kind := range []entity.Kind{entity.Dirty, entity.CleanClean} {
		for _, sb := range streamBlockers() {
			t.Run(fmt.Sprintf("%s/%s", kind, sb.Name()), func(t *testing.T) {
				var c *entity.Collection
				var err error
				if kind == entity.Dirty {
					c, _, err = datagen.GenerateDirty(datagen.Config{Seed: 11, Entities: 60})
				} else {
					c, _, err = datagen.GenerateCleanClean(datagen.Config{Seed: 11, Entities: 60})
				}
				if err != nil {
					t.Fatal(err)
				}
				keyer := sb.StreamKeyer()
				bi := NewBlockIndex(kind)
				live := map[entity.ID]bool{}
				rng := rand.New(rand.NewSource(99))

				check := func() {
					t.Helper()
					sub := entity.NewCollection(kind)
					remap := map[entity.ID]entity.ID{}
					for _, d := range c.All() {
						if !live[d.ID] {
							continue
						}
						cp := d.Clone()
						id := sub.MustAdd(cp)
						remap[id] = d.ID
					}
					want, err := sb.Block(sub)
					if err != nil {
						t.Fatal(err)
					}
					// Rewrite the batch members into the index's ID space.
					rewritten := NewBlocks(kind)
					for _, b := range want.All() {
						nb := &Block{Key: b.Key}
						for _, id := range b.S0 {
							nb.S0 = append(nb.S0, remap[id])
						}
						for _, id := range b.S1 {
							nb.S1 = append(nb.S1, remap[id])
						}
						sortIDs(nb.S0)
						sortIDs(nb.S1)
						rewritten.Add(nb)
					}
					got, want2 := renderBlocks(bi.Blocks()), renderBlocks(rewritten)
					if got != want2 {
						t.Fatalf("incremental blocks diverge from batch build:\nincremental:\n%s\nbatch:\n%s", got, want2)
					}
				}

				for step := 0; step < 200; step++ {
					id := entity.ID(rng.Intn(c.Len()))
					d := c.Get(id)
					if live[id] {
						bi.Remove(id)
						live[id] = false
					} else {
						if err := bi.Add(id, d.Source, keyer(d)); err != nil {
							t.Fatal(err)
						}
						live[id] = true
					}
					if step%50 == 49 {
						check()
					}
				}
				check()
			})
		}
	}
}

// TestBlockIndexAccessors pins the read accessors the streaming resolver's
// frontier walk rides: Keys, Postings, DF and the counts.
func TestBlockIndexAccessors(t *testing.T) {
	bi := NewBlockIndex(entity.CleanClean)
	if err := bi.Add(0, 0, []string{"x", "y"}); err != nil {
		t.Fatal(err)
	}
	if err := bi.Add(1, 0, []string{"x"}); err != nil {
		t.Fatal(err)
	}
	if err := bi.Add(2, 1, []string{"x", "y"}); err != nil {
		t.Fatal(err)
	}
	if err := bi.Add(3, 1, []string{"y", "z"}); err != nil {
		t.Fatal(err)
	}

	// Postings list a key's members in indexing order; an absent key has
	// none.
	var ys []entity.ID
	for _, p := range bi.Postings("y") {
		ys = append(ys, p.Doc)
	}
	if want := []entity.ID{0, 2, 3}; !reflect.DeepEqual(ys, want) {
		t.Fatalf("Postings(y) = %v, want %v", ys, want)
	}
	if ps := bi.Postings("absent"); len(ps) != 0 {
		t.Fatalf("Postings(absent) = %v", ps)
	}
	if bi.Kind() != entity.CleanClean {
		t.Fatalf("Kind = %v", bi.Kind())
	}
	if bi.Len() != 4 {
		t.Fatalf("Len = %d, want 4", bi.Len())
	}
	if bi.NumKeys() != 3 {
		t.Fatalf("NumKeys = %d, want 3 (x, y, z)", bi.NumKeys())
	}
	if bi.DF("y") != 3 || bi.DF("absent") != 0 {
		t.Fatalf("DF(y) = %d, DF(absent) = %d", bi.DF("y"), bi.DF("absent"))
	}
	if keys := bi.Keys(3); !reflect.DeepEqual(keys, []string{"y", "z"}) {
		t.Fatalf("Keys(3) = %v", keys)
	}
	if bi.Keys(42) != nil {
		t.Fatalf("Keys(42) = %v, want nil", bi.Keys(42))
	}
}

// TestBlockIndexAddValidation checks duplicate and source validation.
func TestBlockIndexAddValidation(t *testing.T) {
	bi := NewBlockIndex(entity.Dirty)
	if err := bi.Add(0, 0, []string{"k"}); err != nil {
		t.Fatal(err)
	}
	if err := bi.Add(0, 0, []string{"k"}); err == nil {
		t.Fatal("duplicate Add accepted")
	}
	if err := bi.Add(1, 1, []string{"k"}); err == nil {
		t.Fatal("dirty index accepted source 1")
	}
	cc := NewBlockIndex(entity.CleanClean)
	if err := cc.Add(0, 2, []string{"k"}); err == nil {
		t.Fatal("clean-clean index accepted source 2")
	}
}

// recordingObserver logs membership notifications and probes the index
// state at notification time, pinning the MembershipObserver contract:
// AddDocument sees the member already indexed, RemoveDocument sees it
// still indexed.
type recordingObserver struct {
	t   *testing.T
	log []string
}

func (o *recordingObserver) AddDocument(bi *BlockIndex, id entity.ID, source int, keys []string) {
	o.expectIndexed(bi, id, source, keys, "add")
}

func (o *recordingObserver) RemoveDocument(bi *BlockIndex, id entity.ID, source int, keys []string) {
	o.expectIndexed(bi, id, source, keys, "remove")
}

func (o *recordingObserver) expectIndexed(bi *BlockIndex, id entity.ID, source int, keys []string, kind string) {
	o.t.Helper()
	if s, ok := bi.SourceOf(id); !ok || s != source {
		o.t.Errorf("%s(%d): SourceOf = %d,%t, want %d,true", kind, id, s, ok, source)
	}
	for _, k := range keys {
		seen := false
		for _, p := range bi.Postings(k) {
			seen = seen || p.Doc == id
		}
		if !seen {
			o.t.Errorf("%s(%d): not listed under key %q at notification time", kind, id, k)
		}
	}
	o.log = append(o.log, fmt.Sprintf("%s %d %v", kind, id, keys))
}

// TestBlockIndexObserver checks notification order, payloads and the
// only-on-success rule.
func TestBlockIndexObserver(t *testing.T) {
	bi := NewBlockIndex(entity.Dirty)
	obs := &recordingObserver{t: t}
	bi.Observe(obs)
	bi.Observe(nil) // nil observers are dropped, not invoked

	if err := bi.Add(1, 0, []string{"b", "a", "a", ""}); err != nil {
		t.Fatal(err)
	}
	if err := bi.Add(2, 0, []string{"a"}); err != nil {
		t.Fatal(err)
	}
	// Failed adds notify nobody: duplicate ID, bad source.
	if err := bi.Add(1, 0, []string{"x"}); err == nil {
		t.Fatal("duplicate add accepted")
	}
	if err := bi.Add(3, 1, []string{"x"}); err == nil {
		t.Fatal("dirty index accepted source 1")
	}
	if !bi.Remove(2) {
		t.Fatal("Remove(2) = false")
	}
	if bi.Remove(2) { // second removal: no notification
		t.Fatal("second Remove(2) = true")
	}
	// Keys arrive deduplicated, empty-stripped and sorted — the indexed
	// form, not the raw argument.
	want := []string{"add 1 [a b]", "add 2 [a]", "remove 2 [a]"}
	if !reflect.DeepEqual(obs.log, want) {
		t.Fatalf("observer log = %v, want %v", obs.log, want)
	}
	if _, ok := bi.SourceOf(99); ok {
		t.Fatal("SourceOf(99) reported indexed")
	}
}
