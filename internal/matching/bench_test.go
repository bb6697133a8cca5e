package matching

import (
	"cmp"
	"context"
	"runtime"
	"slices"
	"testing"

	"entityres/internal/blocking"
	"entityres/internal/blockproc"
	"entityres/internal/datagen"
	"entityres/internal/entity"
	"entityres/internal/metablocking"
)

type benchFixture struct {
	name string
	c    *entity.Collection
	bs   *blocking.Blocks
}

// benchFixtures are three block shapes the batch matcher meets:
//   - token-blocked: a raw token-blocked clean-clean collection;
//   - interlink-purged: clean-clean with schema noise, token-blocked and
//     purged at 2,000 comparisons per block, as the interlink workload;
//   - emitkept-dirty: a dirty collection purged, filtered and pruned by
//     ECBS/WNP meta-blocking, so every block is one kept pair, as the
//     interlink-meta workload.
func benchFixtures(b *testing.B) []benchFixture {
	b.Helper()
	tokenBlocked := func(c *entity.Collection, err error) (*entity.Collection, *blocking.Blocks) {
		if err != nil {
			b.Fatal(err)
		}
		bs, err := (&blocking.TokenBlocking{}).Block(c)
		if err != nil {
			b.Fatal(err)
		}
		return c, bs
	}
	c, _, err := datagen.GenerateCleanClean(datagen.Config{Entities: 400, Seed: 7})
	c0, raw := tokenBlocked(c, err)
	c, _, err = datagen.GenerateCleanClean(datagen.Config{Entities: 2000, Seed: 7, DupRatio: 0.5, SchemaNoise: 0.5})
	c1, bs := tokenBlocked(c, err)
	purged := (&blockproc.MaxComparisonsPurge{Max: 2000}).Process(bs)
	c, _, err = datagen.GenerateDirty(datagen.Config{Entities: 1000, Seed: 7, DupRatio: 0.5, MaxDuplicates: 2, SchemaNoise: 0.5})
	c2, bs := tokenBlocked(c, err)
	cleaned := blockproc.Chain{&blockproc.MaxComparisonsPurge{Max: 20000}, &blockproc.BlockFiltering{}}.Process(bs)
	kept := (&metablocking.MetaBlocker{Weight: metablocking.ECBS, Prune: metablocking.WNP}).RestructureParallel(c2, cleaned, 0)
	return []benchFixture{
		{"token-blocked", c0, raw},
		{"interlink-purged", c1, purged},
		{"emitkept-dirty", c2, kept},
	}
}

// reportPerComparison adds ns and allocations per comparison to a
// benchmark, so benchstat can compare the cost of one comparison across
// changes. run executes one resolve and returns its comparison count.
func reportPerComparison(b *testing.B, run func() int64) {
	b.ReportAllocs()
	var before, after runtime.MemStats
	var comparisons int64
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		comparisons += run()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(comparisons), "ns/comparison")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(comparisons), "allocs/comparison")
}

// BenchmarkResolveBlocks measures the batch matcher at GOMAXPROCS workers
// (set it with -cpu) on every bench fixture: token-jaccard compares
// per-call token rows, best-value-jw takes the description fallback.
func BenchmarkResolveBlocks(b *testing.B) {
	for _, fx := range benchFixtures(b) {
		matchers := []*Matcher{{Sim: &TokenJaccard{}, Threshold: 0.4}}
		if fx.name == "token-blocked" {
			matchers = append(matchers, &Matcher{Sim: &BestValueJW{}, Threshold: 0.9})
		}
		for _, m := range matchers {
			b.Run(fx.name+"/"+m.Sim.Name(), func(b *testing.B) {
				reportPerComparison(b, func() int64 {
					res, err := ResolveBlocksParallel(context.Background(), fx.c, fx.bs, m, 0)
					if err != nil {
						b.Fatal(err)
					}
					return res.Comparisons
				})
			})
		}
	}
}

// BenchmarkResolvePairs measures the pair entry point at GOMAXPROCS
// workers over the distinct comparisons of the interlink-purged fixture.
func BenchmarkResolvePairs(b *testing.B) {
	fx := benchFixtures(b)[1]
	pairs := fx.bs.DistinctPairs().Pairs()
	slices.SortFunc(pairs, func(x, y entity.Pair) int {
		return cmp.Or(cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B))
	})
	m := &Matcher{Sim: &TokenJaccard{}, Threshold: 0.4}
	reportPerComparison(b, func() int64 {
		res, err := ResolvePairs(context.Background(), fx.c, pairs, m, 0)
		if err != nil {
			b.Fatal(err)
		}
		return res.Comparisons
	})
}
