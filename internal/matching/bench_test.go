package matching

import (
	"runtime"
	"testing"

	"entityres/internal/blocking"
	"entityres/internal/datagen"
)

// BenchmarkResolveBlocks measures the matcher layer on a token-blocked
// clean-clean collection: token-jaccard compares per-call token rows,
// best-value-jw takes the description fallback. Besides the per-call
// figures it reports ns and allocations per comparison, so benchstat can
// compare the cost of one comparison across changes.
func BenchmarkResolveBlocks(b *testing.B) {
	c, _, err := datagen.GenerateCleanClean(datagen.Config{Entities: 400, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	bs, err := (&blocking.TokenBlocking{}).Block(c)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []*Matcher{
		{Sim: &TokenJaccard{}, Threshold: 0.4},
		{Sim: &BestValueJW{}, Threshold: 0.9},
	} {
		b.Run(m.Sim.Name(), func(b *testing.B) {
			b.ReportAllocs()
			var before, after runtime.MemStats
			var comparisons int64
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				comparisons += ResolveBlocks(c, bs, m).Comparisons
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(comparisons), "ns/comparison")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(comparisons), "allocs/comparison")
		})
	}
}
