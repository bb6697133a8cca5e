package similarity

import (
	"testing"

	"entityres/internal/token"
)

var benchSink float64

// BenchmarkEditDistances compares the character-level measures on typical
// name-length strings.
func BenchmarkEditDistances(b *testing.B) {
	a, c := "katherine johnson", "catherine jonson"
	b.Run("levenshtein", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink = LevenshteinSim(a, c)
		}
	})
	b.Run("damerau", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink = DamerauSim(a, c)
		}
	})
	b.Run("jarowinkler", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink = JaroWinkler(a, c)
		}
	})
	b.Run("qgram2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink = QGramSim(a, c, 2)
		}
	})
}

// BenchmarkSetMeasures compares the token-set measures on realistic
// profile sizes.
func BenchmarkSetMeasures(b *testing.B) {
	x := token.NewSet("alice", "smith", "paris", "painter", "1950", "france")
	y := token.NewSet("alicia", "smith", "paris", "artist", "1950")
	b.Run("jaccard", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink = Jaccard(x, y)
		}
	})
	b.Run("overlap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink = Overlap(x, y)
		}
	})
	b.Run("sorted-jaccard", func(b *testing.B) {
		xs, ys := x.Sorted(), y.Sorted()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSink = JaccardSorted(xs, ys)
		}
	})
	b.Run("sorted-overlap", func(b *testing.B) {
		xs, ys := x.Sorted(), y.Sorted()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSink = OverlapSorted(xs, ys)
		}
	})
}
