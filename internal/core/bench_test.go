package core

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"entityres/internal/datagen"
	"entityres/internal/entity"
)

// The benchmark workload is matching-dominated (the phase the worker pool
// accelerates): a datagen people collection under token blocking produces
// tens of thousands of distinct comparisons, each costing a tokenization +
// Jaccard evaluation. On a single core the parallel run pays only the
// streaming/channel overhead; at 4+ cores the worker pool yields the
// multi-× speedup the sharded design targets (the serial residue — the
// dedup producer — is a few percent of the per-pair match cost).

var (
	benchOnce sync.Once
	benchColl *entity.Collection
)

func benchCollection(b *testing.B) *entity.Collection {
	benchOnce.Do(func() {
		c, _, err := datagen.GenerateDirty(datagen.Config{
			Entities:      1200,
			Seed:          42,
			MaxDuplicates: 2,
		})
		if err != nil {
			panic(err)
		}
		benchColl = c
	})
	return benchColl
}

func BenchmarkPipelineSequential(b *testing.B) {
	if testing.Short() {
		b.Skip("pipeline benchmarks are skipped in short mode")
	}
	c := benchCollection(b)
	cfg := batchConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cfg.Run(c)
		if err != nil {
			b.Fatal(err)
		}
		if res.Matches.Len() == 0 {
			b.Fatal("sequential pipeline found no matches")
		}
	}
}

func BenchmarkPipelineParallel(b *testing.B) {
	if testing.Short() {
		b.Skip("pipeline benchmarks are skipped in short mode")
	}
	c := benchCollection(b)
	cfg := batchConfig()
	// Untimed setup: the GOMAXPROCS-worker result must be identical to the
	// one-worker one — a speedup that changes the answer is no speedup.
	want, err := cfg.Run(c)
	if err != nil {
		b.Fatal(err)
	}
	first, err := cfg.RunWorkers(context.Background(), c, 0)
	if err != nil {
		b.Fatal(err)
	}
	if gp, wp := sortedPairs(first.Matches), sortedPairs(want.Matches); !reflect.DeepEqual(gp, wp) {
		b.Fatalf("parallel found %d matches, sequential %d, or they differ", len(gp), len(wp))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cfg.RunWorkers(context.Background(), c, 0)
		if err != nil {
			b.Fatal(err)
		}
		if res.Matches.Len() == 0 {
			b.Fatal("parallel pipeline found no matches")
		}
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cores")
}
