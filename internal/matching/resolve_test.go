package matching

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"entityres/internal/blocking"
	"entityres/internal/blockproc"
	"entityres/internal/datagen"
	"entityres/internal/entity"
	"entityres/internal/metablocking"
	"entityres/internal/token"
)

// directedOverlap embeds TokenJaccard and overrides Sim with the share of
// a's tokens that b holds, so the executors must call it on the
// descriptions, and, since it is not symmetric, in the oracle's A < B
// order. It scores a missing description 0, which lets it run on blocks
// whose IDs name no record.
type directedOverlap struct{ TokenJaccard }

func (s *directedOverlap) Name() string { return "directed-overlap" }

func (s *directedOverlap) Sim(a, b *entity.Description) float64 {
	if a == nil || b == nil {
		return 0
	}
	p := token.DefaultProfiler()
	sa := p.Set(a)
	if sa.Len() == 0 {
		return 0
	}
	return float64(sa.IntersectionSize(p.Set(b))) / float64(sa.Len())
}

type resolveFixture struct {
	name string
	c    *entity.Collection
	bs   *blocking.Blocks
	// inDomain says whether the entity index accepts bs, that is, whether
	// the resolve walks neighbourhoods rather than streaming pairs.
	inDomain bool
	// describedOnly marks blocks naming IDs outside the collection: only a
	// measure that scores missing descriptions can run on them.
	describedOnly bool
}

// vocabCollection is a collection of n records, each a few words drawn
// from a small vocabulary, so that token measures separate its pairs.
func vocabCollection(kind entity.Kind, n int, seed int64) *entity.Collection {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"alice", "bob", "carol", "smith", "jones", "berlin", "paris", "oslo", "red", "blue"}
	c := entity.NewCollection(kind)
	for i := 0; i < n; i++ {
		d := entity.NewDescription("")
		for w := 0; w < 2+rng.Intn(3); w++ {
			d.Add("name", words[rng.Intn(len(words))])
		}
		if kind == entity.CleanClean {
			d.Source = i & 1
		}
		c.MustAdd(d)
	}
	return c
}

func resolveFixtures(t testing.TB) []resolveFixture {
	t.Helper()
	var out []resolveFixture
	for _, kind := range []entity.Kind{entity.Dirty, entity.CleanClean} {
		gen := datagen.GenerateDirty
		if kind == entity.CleanClean {
			gen = datagen.GenerateCleanClean
		}
		for _, seed := range []int64{1, 2} {
			c, _, err := gen(datagen.Config{Entities: 80, Seed: seed, DupRatio: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			raw, err := (&blocking.TokenBlocking{}).Block(c)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%v-seed%d", kind, seed)
			purged := (&blockproc.MaxComparisonsPurge{Max: 200}).Process(raw)
			filtered := (&blockproc.BlockFiltering{}).Process(raw)
			kept := (&metablocking.MetaBlocker{Weight: metablocking.ECBS, Prune: metablocking.WNP}).RestructureParallel(c, filtered, 1)
			out = append(out,
				resolveFixture{name: name + "-raw", c: c, bs: raw, inDomain: true},
				resolveFixture{name: name + "-purged", c: c, bs: purged, inDomain: true},
				resolveFixture{name: name + "-filtered", c: c, bs: filtered, inDomain: true},
				resolveFixture{name: name + "-emitkept", c: c, bs: kept, inDomain: true})
		}
	}

	c := vocabCollection(entity.Dirty, 40, 3)
	out = append(out, resolveFixture{name: "empty", c: c, bs: blocking.NewBlocks(entity.Dirty), inDomain: true})

	// Records 1 and 2 share blocks a and b; the pair is compared once,
	// where it is first suggested, so three of the four suggested
	// comparisons run.
	lcb := blocking.NewBlocks(entity.Dirty)
	lcb.Add(&blocking.Block{Key: "a", S0: []entity.ID{1, 2}})
	lcb.Add(&blocking.Block{Key: "b", S0: []entity.ID{1, 2, 3}})
	out = append(out, resolveFixture{name: "least-common-block", c: c, bs: lcb, inDomain: true})

	repeated := blocking.NewBlocks(entity.Dirty)
	repeated.Add(&blocking.Block{Key: "a", S0: []entity.ID{4, 7, 4, 9}})
	repeated.Add(&blocking.Block{Key: "b", S0: []entity.ID{7, 9, 11}})
	out = append(out, resolveFixture{name: "repeated-member", c: c, bs: repeated})

	cc := vocabCollection(entity.CleanClean, 40, 4)
	bothSides := blocking.NewBlocks(entity.CleanClean)
	bothSides.Add(&blocking.Block{Key: "a", S0: []entity.ID{0, 2, 5}, S1: []entity.ID{1, 3}})
	bothSides.Add(&blocking.Block{Key: "b", S0: []entity.ID{3, 7}, S1: []entity.ID{0, 2, 9}})
	bothSides.Add(&blocking.Block{Key: "c", S0: []entity.ID{4}, S1: []entity.ID{4, 6}})
	out = append(out, resolveFixture{name: "both-sides", c: cc, bs: bothSides})

	negative := blocking.NewBlocks(entity.Dirty)
	negative.Add(&blocking.Block{Key: "a", S0: []entity.ID{-3, 2, 5}})
	negative.Add(&blocking.Block{Key: "b", S0: []entity.ID{2, 5, 6}})
	out = append(out, resolveFixture{name: "negative-ids", c: c, bs: negative, describedOnly: true})

	// A handful of members with IDs far beyond what they could index
	// densely.
	big := vocabCollection(entity.Dirty, 3000, 5)
	sparse := blocking.NewBlocks(entity.Dirty)
	sparse.Add(&blocking.Block{Key: "a", S0: []entity.ID{2999, 5, 1500}})
	sparse.Add(&blocking.Block{Key: "b", S0: []entity.ID{1500, 2999, 2400}})
	sparse.Add(&blocking.Block{Key: "c", S0: []entity.ID{5, 2400}})
	out = append(out, resolveFixture{name: "sparse-ids", c: big, bs: sparse})
	return out
}

// TestResolveEqualsIteratorOracle: on every fixture, under every measure
// and worker count, ResolveBlocksParallel returns exactly the match set and
// the comparison count of a Match loop over CompareIterator, whether it
// walks the entity index or streams pairs.
func TestResolveEqualsIteratorOracle(t *testing.T) {
	for _, fx := range resolveFixtures(t) {
		if _, ok := blocking.IndexBlocks(fx.bs); ok != fx.inDomain {
			t.Fatalf("%s: IndexBlocks accepts it: %v, want %v", fx.name, ok, fx.inDomain)
		}
		matchers := []*Matcher{{Sim: &directedOverlap{}, Threshold: 0.4}}
		if !fx.describedOnly {
			matchers = append(matchers,
				&Matcher{Sim: &TokenJaccard{}, Threshold: 0.4},
				&Matcher{Sim: &TokenContainment{}, Threshold: 0.6},
				&Matcher{Sim: NewTFIDFCosine(fx.c, nil), Threshold: 0.3})
		}
		for _, m := range matchers {
			_, want := oracle(fx.c, fx.bs, m)
			for _, workers := range []int{1, 2, 3, 4, 0} {
				got, err := ResolveBlocksParallel(context.Background(), fx.c, fx.bs, m, workers)
				if err != nil {
					t.Fatalf("%s %s workers=%d: %v", fx.name, m.Name(), workers, err)
				}
				sameResult(t, fmt.Sprintf("%s %s workers=%d", fx.name, m.Name(), workers), got, want)
			}
		}
		if fx.name == "least-common-block" {
			if got := ResolveBlocks(fx.c, fx.bs, &Matcher{Sim: &TokenJaccard{}}).Comparisons; got != 3 || fx.bs.TotalComparisons() != 4 {
				t.Fatalf("least-common-block: %d of %d suggested comparisons ran, want 3 of 4", got, fx.bs.TotalComparisons())
			}
		}
	}
}

// fuzzCollection is 64 records whose names are a few words picked by ID, so
// token measures separate the pairs of any block set over them.
func fuzzCollection(kind entity.Kind) *entity.Collection {
	words := []string{"alice", "bob", "carol", "smith", "jones", "berlin", "paris", "oslo"}
	c := entity.NewCollection(kind)
	for i := 0; i < 64; i++ {
		d := entity.NewDescription("").
			Add("name", words[i%8]).
			Add("name", words[(i/8)%8]).
			Add("city", words[(i*5+3)%8])
		if kind == entity.CleanClean {
			d.Source = i & 1
		}
		c.MustAdd(d)
	}
	return c
}

// FuzzResolveBlocks: free-form blocks over up to 64 IDs resolve exactly as
// the CompareIterator oracle does, at one and at three workers. The first
// byte picks the kind (bit 0: clean-clean); after it a byte >= 0xC0 closes
// the current block and any other byte x adds member x&63, on side
// (x>>6)&1 in a clean-clean collection. Members may repeat and records may
// sit on both sides, so both the walk and the stream are exercised.
func FuzzResolveBlocks(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0xC0, 2, 3, 4, 0xC0, 1, 4})
	f.Add([]byte{1, 0, 65, 2, 67, 0xC0, 2, 69, 0xC0, 4, 65, 71})
	f.Add([]byte{0, 5, 5, 6, 0xC0, 6, 7})
	f.Add([]byte{1, 3, 67, 0xC0, 8, 72, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		kind := entity.Dirty
		if len(data) > 0 {
			if data[0]&1 != 0 {
				kind = entity.CleanClean
			}
			data = data[1:]
		}
		c := fuzzCollection(kind)
		bs := blocking.NewBlocks(kind)
		b := &blocking.Block{}
		for _, x := range data {
			switch {
			case x >= 0xC0:
				bs.Add(b)
				b = &blocking.Block{Key: fmt.Sprint(bs.Len())}
			case kind == entity.CleanClean && x&64 != 0:
				b.S1 = append(b.S1, int(x&63))
			default:
				b.S0 = append(b.S0, int(x&63))
			}
		}
		bs.Add(b)
		for _, m := range []*Matcher{
			{Sim: &TokenJaccard{}, Threshold: 0.4},
			{Sim: &directedOverlap{}, Threshold: 0.4},
		} {
			_, want := oracle(c, bs, m)
			for _, workers := range []int{1, 3} {
				got, err := ResolveBlocksParallel(context.Background(), c, bs, m, workers)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, fmt.Sprintf("%s workers=%d", m.Name(), workers), got, want)
			}
		}
	})
}
