package token

import "testing"

// BenchmarkTokenizeFiltered tokenizes attribute-sized values under the
// default stopwords: ASCII values take the single-scan path, the Unicode
// one falls back to Normalize and strings.Fields.
func BenchmarkTokenizeFiltered(b *testing.B) {
	stop := DefaultStopwords()
	for _, in := range []struct{ name, value string }{
		{"ascii", "Dr. Jean-Luc PICARD of the USS Enterprise, 2364 La Barre"},
		{"unicode", "Dr. Jean-Luc PICARD of the USS Enterprise, 2364 La Barre, Frànce"},
	} {
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				TokenizeFiltered(in.value, stop, 0)
			}
		})
	}
}
