package core

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"entityres/internal/blocking"
	"entityres/internal/blockproc"
	"entityres/internal/datagen"
	"entityres/internal/entity"
	"entityres/internal/incremental"
	"entityres/internal/matching"
	"entityres/internal/metablocking"
	"entityres/internal/token"
)

// rowPairs are pairs of records whose token rows differ under one profile
// field each, so a matcher fed another profiler's rows decides them
// differently: attribute names (SchemaAware), short tokens (MinTokenLen 3),
// URI local names (IncludeURITokens), reference values (SkipRefValues) and
// stopwords ("vox", the rowsStop profiles' only stopword).
func rowPairs() [][2]*entity.Description {
	d := entity.NewDescription
	return [][2]*entity.Description{
		{d("").Add("name", "Alice Smith").Add("note", "kx qz"), d("").Add("name", "alice smith").Add("memo", "kx qz")},
		{d("").Add("name", "jo li wu Anderson"), d("").Add("name", "anderson qq rr ss")},
		{d("http://kb0.example.org/quill_rook_mace").Add("name", "zed"), d("http://kb1.example.org/b1").Add("name", "zed")},
		{d("").Add("name", "yara").Add("knows", "http://kb.example.org/hub_one_two"), d("").Add("name", "Yara")},
		{d("").Add("name", "the of and vox ulm"), d("").Add("name", "the of and vox pim")},
	}
}

// rowsCollection is a seeded datagen collection of the given kind plus
// the rowPairs, one record of each pair in each source of a clean-clean
// collection.
func rowsCollection(t *testing.T, kind entity.Kind) *entity.Collection {
	t.Helper()
	gen := datagen.GenerateDirty
	if kind == entity.CleanClean {
		gen = datagen.GenerateCleanClean
	}
	c, _, err := gen(datagen.Config{Entities: 120, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range rowPairs() {
		for side, d := range pair {
			if kind == entity.CleanClean {
				d.Source = side
			}
			c.MustAdd(d)
		}
	}
	return c
}

// rowsCase pairs the blocker's profiler with the measure's and says
// whether the batch matcher may take blocking's key lists as its rows.
type rowsCase struct {
	name           string
	blocker, match *token.Profiler
	share          bool
}

func rowsCases() []rowsCase {
	out := []rowsCase{
		{"nil/nil", nil, nil, true},
		{"nil/default", nil, token.DefaultProfiler(), true},
		{"default/nil", token.DefaultProfiler(), nil, true},
		{"equal", &token.Profiler{MinTokenLen: 2, Stopwords: token.NewStopwords("the", "of")},
			&token.Profiler{MinTokenLen: 2, Stopwords: token.NewStopwords("of", "the")}, true},
	}
	variants := map[string]func(*token.Profiler){
		"SchemaAware":      func(p *token.Profiler) { p.Scheme = token.SchemaAware },
		"MinTokenLen":      func(p *token.Profiler) { p.MinTokenLen = 3 },
		"IncludeURITokens": func(p *token.Profiler) { p.IncludeURITokens = true },
		"SkipRefValues":    func(p *token.Profiler) { p.SkipRefValues = true },
		"Stopwords":        func(p *token.Profiler) { p.Stopwords = token.NewStopwords("vox") },
	}
	for _, name := range []string{"SchemaAware", "MinTokenLen", "IncludeURITokens", "SkipRefValues", "Stopwords"} {
		v := token.DefaultProfiler()
		variants[name](v)
		out = append(out,
			rowsCase{name + "/nil", v, nil, false},
			rowsCase{"nil/" + name, nil, v, false})
	}
	return out
}

// TestBatchRowsEqualBoundRows is the differential of row sharing: a batch
// run at 1, 2 and 4 workers, which decides on blocking's key lists when the
// profilers agree, equals ResolveBlocksParallel over the same final blocks,
// which tokenizes every record for the matcher itself. It covers dirty and
// clean-clean collections, raw, purged and ECBS/WNP-restructured blocks,
// both token measures, and profilers that agree and that differ in each
// field. The streaming resolver, which reads its index's key lists as rows
// when the profilers agree, must equal the same oracle over the raw blocks
// after applying the collection in batches. For each differing pair it
// also checks that the fixture can tell: forcing the blocker's rows on the
// matcher changes some result.
func TestBatchRowsEqualBoundRows(t *testing.T) {
	ctx := context.Background()
	stages := map[string]func(p *Pipeline){
		"raw":    func(*Pipeline) {},
		"purged": func(p *Pipeline) { p.Processors = []blockproc.Processor{&blockproc.MaxComparisonsPurge{Max: 40}} },
		"ecbs-wnp": func(p *Pipeline) {
			p.Meta = &metablocking.MetaBlocker{Weight: metablocking.ECBS, Prune: metablocking.WNP}
		},
	}
	measures := map[string]func(*token.Profiler) *matching.Matcher{
		"jaccard": func(p *token.Profiler) *matching.Matcher {
			return &matching.Matcher{Sim: &matching.TokenJaccard{Profiler: p}, Threshold: 0.5}
		},
		"containment": func(p *token.Profiler) *matching.Matcher {
			return &matching.Matcher{Sim: &matching.TokenContainment{Profiler: p}, Threshold: 0.75}
		},
	}
	for _, kind := range []entity.Kind{entity.Dirty, entity.CleanClean} {
		c := rowsCollection(t, kind)
		for _, rc := range rowsCases() {
			blocker := &blocking.TokenBlocking{Profiler: rc.blocker}
			_, keyRows, err := blocking.BuildShardedKeys(ctx, c, blocker, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			told := false
			for stage, configure := range stages {
				for measure, matcher := range measures {
					what := fmt.Sprintf("%v %s %s %s", kind, rc.name, stage, measure)
					p := Pipeline{Blocker: blocker, Matcher: matcher(rc.match), Mode: Batch}
					configure(&p)
					if p.sharesRows() != rc.share {
						t.Fatalf("%s: sharesRows = %v, want %v", what, !rc.share, rc.share)
					}
					var want matching.Result
					for _, workers := range []int{1, 2, 4} {
						res, err := p.RunWorkers(ctx, c, workers)
						if err != nil {
							t.Fatalf("%s workers=%d: %v", what, workers, err)
						}
						if workers == 1 {
							want, err = matching.ResolveBlocksParallel(ctx, c, res.Blocks, p.Matcher, 1)
							if err != nil {
								t.Fatal(err)
							}
						}
						if res.Comparisons != want.Comparisons || !slices.Equal(sortedPairs(res.Matches), sortedPairs(want.Matches)) {
							t.Fatalf("%s workers=%d: %d matches / %d comparisons, ResolveBlocksParallel %d / %d",
								what, workers, res.Matches.Len(), res.Comparisons, want.Matches.Len(), want.Comparisons)
						}
						if workers == 1 && stage == "raw" {
							matches, comparisons := streamRows(t, c, blocker, p.Matcher)
							if comparisons != want.Comparisons || !slices.Equal(sortedPairs(matches), sortedPairs(want.Matches)) {
								t.Fatalf("%s streaming: %d matches / %d comparisons, ResolveBlocksParallel %d / %d",
									what, matches.Len(), comparisons, want.Matches.Len(), want.Comparisons)
							}
						}
						if workers == 1 && !rc.share {
							forced, err := matching.ResolveBlocksRows(ctx, c, res.Blocks, p.Matcher, 1, keyRows)
							if err != nil {
								t.Fatal(err)
							}
							told = told || !slices.Equal(sortedPairs(forced.Matches), sortedPairs(want.Matches))
						}
					}
				}
			}
			if !rc.share && !told {
				t.Errorf("%v %s: the blocker's rows decide every pair like the matcher's own; the fixture cannot tell them apart", kind, rc.name)
			}
		}
	}
}

// streamRows applies c's records to a fresh streaming resolver in batches
// of 37 inserts, so handles equal c's IDs, and returns its matches and
// comparison count.
func streamRows(t *testing.T, c *entity.Collection, blocker *blocking.TokenBlocking, m *matching.Matcher) (*entity.Matches, int64) {
	t.Helper()
	r, err := incremental.New(incremental.Config{Kind: c.Kind(), Blocker: blocker, Matcher: m, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	all := c.All()
	for at := 0; at < len(all); at += 37 {
		var recs []incremental.Record
		for _, d := range all[at:min(at+37, len(all))] {
			recs = append(recs, incremental.Record{Kind: incremental.OpInsert, ID: -1, URI: d.URI, Source: d.Source, Attrs: d.Attrs})
		}
		if err := r.ApplyBatch(context.Background(), recs); err != nil {
			t.Fatal(err)
		}
	}
	matches, err := r.Matches()
	if err != nil {
		t.Fatal(err)
	}
	return matches, r.Counters().Comparisons
}
