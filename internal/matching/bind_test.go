package matching

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"entityres/internal/blocking"
	"entityres/internal/datagen"
	"entityres/internal/entity"
	"entityres/internal/token"
)

// edgeDescriptions are records that stress row building: no attributes,
// values that yield no tokens, repeated tokens, Unicode, URIs and
// reference values.
func edgeDescriptions() []*entity.Description {
	return []*entity.Description{
		entity.NewDescription(""),
		entity.NewDescription("").Add("note", "-- !! --").Add("filler", "the of and"),
		entity.NewDescription("http://kb.example.org/alice_smith").
			Add("name", "alice alice smith smith").Add("alias", "Alice SMITH"),
		entity.NewDescription("urn:x:zoe_strasse").
			Add("name", "Zoë Straße 東京 zoë").Add("city", "Zürich ZÜRICH"),
		entity.NewDescription("http://kb.example.org/bob").
			Add("knows", "http://kb.example.org/alice_smith").Add("name", "bob smith"),
	}
}

// bindFixture is a seeded datagen collection of the given kind plus the
// edge records in every source, token-blocked, with one extra block that
// sets the edge records against each other and against generated records
// whatever their tokens.
func bindFixture(t testing.TB, kind entity.Kind) (*entity.Collection, *blocking.Blocks) {
	t.Helper()
	gen := datagen.GenerateDirty
	sources := 1
	if kind == entity.CleanClean {
		gen, sources = datagen.GenerateCleanClean, 2
	}
	c, _, err := gen(datagen.Config{Entities: 120, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	generated := c.Len()
	extra := &blocking.Block{Key: "edge"}
	place := func(id entity.ID) {
		if c.Get(id).Source == 1 {
			extra.S1 = append(extra.S1, id)
		} else {
			extra.S0 = append(extra.S0, id)
		}
	}
	for _, id := range []entity.ID{0, 1, 2, generated - 2, generated - 1} {
		place(id)
	}
	for src := 0; src < sources; src++ {
		for _, d := range edgeDescriptions() {
			d.Source = src
			place(c.MustAdd(d))
		}
	}
	bs, err := (&blocking.TokenBlocking{}).Block(c)
	if err != nil {
		t.Fatal(err)
	}
	bs.Add(extra)
	return c, bs
}

// oracle resolves bs the unbound way, calling Match on the descriptions of
// every distinct comparison, and returns the pairs it compared.
func oracle(c *entity.Collection, bs *blocking.Blocks, m *Matcher) ([]entity.Pair, Result) {
	var pairs []entity.Pair
	res := Result{Matches: entity.NewMatches()}
	it := blocking.NewCompareIterator(bs)
	for p, ok := it.Next(); ok; p, ok = it.Next() {
		pairs = append(pairs, p)
		res.Comparisons++
		if ok, _ := m.Match(c.Get(p.A), c.Get(p.B)); ok {
			res.Matches.Add(p.A, p.B)
		}
	}
	return pairs, res
}

func sameResult(t *testing.T, label string, got, want Result) {
	t.Helper()
	if got.Comparisons != want.Comparisons {
		t.Fatalf("%s: comparisons %d, want %d", label, got.Comparisons, want.Comparisons)
	}
	gp, wp := sortedPairs(got.Matches), sortedPairs(want.Matches)
	if len(gp) != len(wp) {
		t.Fatalf("%s: %d matches, want %d", label, len(gp), len(wp))
	}
	for i := range wp {
		if gp[i] != wp[i] {
			t.Fatalf("%s: match %d is %v, want %v", label, i, gp[i], wp[i])
		}
	}
}

// executors returns every resolve entry point the matcher layer offers,
// bound to the same input: ResolveBlocks, and ResolvePairs over the
// oracle's pairs and ResolveBlocksParallel at several worker counts (0
// means GOMAXPROCS).
func executors(t *testing.T, c *entity.Collection, bs *blocking.Blocks, pairs []entity.Pair, m *Matcher) map[string]func() Result {
	out := map[string]func() Result{
		"ResolveBlocks": func() Result { return ResolveBlocks(c, bs, m) },
	}
	for _, w := range []int{1, 2, 4, 0} {
		out[fmt.Sprintf("ResolvePairs/workers=%d", w)] = func() Result {
			res, err := ResolvePairs(context.Background(), c, pairs, m, w)
			if err != nil {
				t.Fatalf("workers=%d: %v", w, err)
			}
			return res
		}
		out[fmt.Sprintf("ResolveBlocksParallel/workers=%d", w)] = func() Result {
			res, err := ResolveBlocksParallel(context.Background(), c, bs, m, w)
			if err != nil {
				t.Fatalf("workers=%d: %v", w, err)
			}
			return res
		}
	}
	return out
}

// TestBoundMatcherEqualsOracle is the differential test for the bound
// token measures: on dirty and clean-clean fixtures, under every profiler
// configuration, every executor returns exactly the match set and the
// comparison count of an oracle that calls Match on each pair's
// descriptions.
func TestBoundMatcherEqualsOracle(t *testing.T) {
	profilers := []struct {
		name string
		p    *token.Profiler
	}{
		{"nil", nil},
		{"schema-aware", &token.Profiler{Scheme: token.SchemaAware, Stopwords: token.DefaultStopwords()}},
		{"min-token-len-3", &token.Profiler{Stopwords: token.DefaultStopwords(), MinTokenLen: 3}},
		{"uri-tokens", &token.Profiler{Stopwords: token.DefaultStopwords(), IncludeURITokens: true}},
		{"skip-ref-values", &token.Profiler{Stopwords: token.DefaultStopwords(), SkipRefValues: true}},
	}
	for _, kind := range []entity.Kind{entity.Dirty, entity.CleanClean} {
		c, bs := bindFixture(t, kind)
		for _, pc := range profilers {
			for _, m := range []*Matcher{
				{Sim: &TokenJaccard{Profiler: pc.p}, Threshold: 0.4},
				{Sim: &TokenContainment{Profiler: pc.p}, Threshold: 0.6},
			} {
				pairs, want := oracle(c, bs, m)
				if n := int64(want.Matches.Len()); n == 0 || n == want.Comparisons {
					t.Fatalf("kind %v %s %s: oracle matched %d of %d pairs; the fixture must separate", kind, pc.name, m.Name(), n, want.Comparisons)
				}
				for name, run := range executors(t, c, bs, pairs, m) {
					sameResult(t, fmt.Sprintf("kind %v %s %s %s", kind, pc.name, m.Name(), name), run(), want)
				}
			}
		}
	}
}

// countingJaccard embeds TokenJaccard and overrides Sim, as user code may.
type countingJaccard struct {
	TokenJaccard
	calls atomic.Int64
}

func (s *countingJaccard) Sim(a, b *entity.Description) float64 {
	s.calls.Add(1)
	return s.TokenJaccard.Sim(a, b)
}

// TestEmbeddingTypeKeepsItsSim checks that binding goes by concrete type: a
// type embedding TokenJaccard gets no rows, and its own Sim runs once per
// comparison in every executor.
func TestEmbeddingTypeKeepsItsSim(t *testing.T) {
	c, bs := bindFixture(t, entity.CleanClean)
	sim := &countingJaccard{}
	m := &Matcher{Sim: sim, Threshold: 0.4}
	pairs, want := oracle(c, bs, m)
	for name, run := range executors(t, c, bs, pairs, m) {
		sim.calls.Store(0)
		sameResult(t, name, run(), want)
		if calls := sim.calls.Load(); calls != want.Comparisons {
			t.Fatalf("%s: Sim ran %d times for %d comparisons", name, calls, want.Comparisons)
		}
	}
}
