package blocking

import (
	"context"
	"fmt"
	"testing"

	"entityres/internal/datagen"
	"entityres/internal/entity"
)

func benchCollection(b *testing.B, n int) *entity.Collection {
	b.Helper()
	c, _, err := datagen.GenerateDirty(datagen.Config{Seed: 9, Entities: n, DupRatio: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkBlockers measures block-construction throughput of each
// algorithm on the same 1000-entity collection.
func BenchmarkBlockers(b *testing.B) {
	c := benchCollection(b, 1000)
	for _, bl := range []Blocker{
		&TokenBlocking{},
		&StandardBlocking{},
		&AttributeClustering{},
		&SortedNeighborhood{Window: 8},
		&QGramsBlocking{Q: 3},
		&SuffixArrayBlocking{},
		&PrefixInfixSuffix{},
	} {
		b.Run(bl.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bl.Block(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTokenBlockingScale shows the near-linear growth of token
// blocking construction (the E12 claim at micro level).
func BenchmarkTokenBlockingScale(b *testing.B) {
	for _, n := range []int{500, 1000, 2000, 4000} {
		c := benchCollection(b, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := (&TokenBlocking{}).Block(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDistinctPairs measures redundancy elimination over the
// overlapping token blocks.
func BenchmarkDistinctPairs(b *testing.B) {
	c := benchCollection(b, 1000)
	bs, err := (&TokenBlocking{}).Block(c)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bs.DistinctPairs()
	}
}

// BenchmarkBuildSharded builds token blocking over an interlink-shaped
// corpus: clean-clean People records, light corruption, schema noise and a
// vocabulary scaled with the entity count. It reports the build's cost per
// record.
func BenchmarkBuildSharded(b *testing.B) {
	light := datagen.LightCorruption()
	c, _, err := datagen.GenerateCleanClean(datagen.Config{Seed: 42, Entities: 6000, DupRatio: 0.5,
		SchemaNoise: 0.5, VocabScale: 3, Domain: datagen.People, Corruption: &light})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := BuildSharded(context.Background(), c, &TokenBlocking{}, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.Len()), "ns/record")
}
