package metablocking

import (
	"testing"

	"entityres/internal/blocking"
	"entityres/internal/blockproc"
	"entityres/internal/datagen"
)

func benchBlocks(b *testing.B) (*blocking.Blocks, *datagen.Config) {
	b.Helper()
	cfg := &datagen.Config{Seed: 9, Entities: 800, DupRatio: 0.5}
	c, _, err := datagen.GenerateDirty(*cfg)
	if err != nil {
		b.Fatal(err)
	}
	bs, err := (&blocking.TokenBlocking{}).Block(c)
	if err != nil {
		b.Fatal(err)
	}
	return bs, cfg
}

// BenchmarkBuildGraph measures blocking-graph construction per weighting
// scheme (the dominant cost of meta-blocking).
func BenchmarkBuildGraph(b *testing.B) {
	bs, _ := benchBlocks(b)
	for _, w := range WeightSchemes() {
		b.Run(w.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				BuildGraph(bs, w)
			}
		})
	}
}

// BenchmarkPrune measures each pruning scheme over a prebuilt graph.
func BenchmarkPrune(b *testing.B) {
	bs, _ := benchBlocks(b)
	g := BuildGraph(bs, ARCS)
	for _, p := range PruneSchemes() {
		m := &MetaBlocker{Weight: ARCS, Prune: p}
		b.Run(p.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.PruneGraph(g, bs)
			}
		})
	}
}

// BenchmarkRestructure measures batch meta-blocking end to end (entity
// index, weighting, pruning, emission) on a dirty collection shaped like
// the interlink-meta workload: heavy corruption, token blocking, a 20000
// comparison purge and block filtering.
func BenchmarkRestructure(b *testing.B) {
	heavy := datagen.HeavyCorruption()
	c, _, err := datagen.GenerateDirty(datagen.Config{Seed: 42, Entities: 3200, DupRatio: 0.5,
		MaxDuplicates: 2, SchemaNoise: 0.5, Corruption: &heavy})
	if err != nil {
		b.Fatal(err)
	}
	bs, err := (&blocking.TokenBlocking{}).Block(c)
	if err != nil {
		b.Fatal(err)
	}
	bs = blockproc.Chain{&blockproc.MaxComparisonsPurge{Max: 20000}, &blockproc.BlockFiltering{}}.Process(bs)
	for _, m := range []*MetaBlocker{{Weight: ECBS, Prune: WNP}, {Weight: CBS, Prune: WEP}, {Weight: ARCS, Prune: CNP}} {
		b.Run(m.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.Restructure(c, bs)
			}
		})
	}
}
