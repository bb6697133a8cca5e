package token

import (
	"slices"
	"strings"
	"testing"
	"unicode"
)

// FuzzNormalize checks normalization never panics, is idempotent, and only
// emits ToLower-stable letters, digits and spaces — the invariant every
// downstream tokenizer assumes. (Some letters, e.g. the mathematical
// fraktur capitals, are uppercase by Unicode category yet have no
// lowercase mapping; ToLower-stability is the property Normalize actually
// guarantees.)
func FuzzNormalize(f *testing.F) {
	for _, s := range []string{
		"Jean-Luc Picard", "  ", "", "ÀÉÎÕÜ çñß", "日本語テキスト",
		"tabs\tand\nnewlines", "123-456", "\x00\xff invalid \xed\xa0\x80 utf8",
		"ⅣⅥ ½ ₂ 𝔘𝔫𝔦", "İstanbul DŽungla",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		n := Normalize(s)
		for _, r := range n {
			if r != ' ' && !unicode.IsLetter(r) && !unicode.IsDigit(r) {
				t.Fatalf("Normalize(%q) emitted %q", s, r)
			}
			if unicode.ToLower(r) != r {
				t.Fatalf("Normalize(%q) emitted lowerable %q", s, r)
			}
		}
		if n2 := Normalize(n); n2 != n {
			t.Fatalf("Normalize not idempotent on %q: %q -> %q", s, n, n2)
		}
	})
}

// FuzzTokenize checks tokenization never panics and that every token is a
// non-empty normalized word that re-tokenizes to itself.
func FuzzTokenize(f *testing.F) {
	for _, s := range []string{
		"alice smith", "", "a", "-- punct --", "mixed 'quotes' and №128",
		"über Äpfel", " nbsp separated",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		for _, tok := range Tokenize(s) {
			if tok == "" {
				t.Fatalf("Tokenize(%q) emitted an empty token", s)
			}
			if strings.ContainsAny(tok, " \t\n") {
				t.Fatalf("Tokenize(%q) emitted token with whitespace: %q", s, tok)
			}
			again := Tokenize(tok)
			if len(again) != 1 || again[0] != tok {
				t.Fatalf("token %q from %q is not tokenization-stable: %v", tok, s, again)
			}
		}
	})
}

// FuzzQGrams checks q-gram extraction never panics and that every gram of
// the normalized input has exactly q runes.
func FuzzQGrams(f *testing.F) {
	f.Add("smith", 3)
	f.Add("", 2)
	f.Add("a", 5)
	f.Add("é日本", 2)
	f.Add("two words", 4)
	f.Add("x", 0)
	f.Add("neg", -3)
	f.Fuzz(func(t *testing.T, s string, q int) {
		// Bound q: gram extraction allocates O(q) padding by design, so
		// astronomically large q only tests the allocator.
		if q > 16 {
			q = q%16 + 1
		}
		grams := QGrams(s, q)
		if q < 1 && grams != nil {
			t.Fatalf("QGrams(%q, %d) = %v, want nil", s, q, grams)
		}
		for _, g := range grams {
			if n := len([]rune(g)); n != q {
				t.Fatalf("QGrams(%q, %d) emitted %q with %d runes", s, q, g, n)
			}
		}
	})
}

// referenceTokens is TokenizeFiltered spelled out on the Unicode path,
// the reference the single-scan ASCII tokenizer must reproduce.
func referenceTokens(s string, stop Stopwords, minLen int) []string {
	var out []string
	for _, t := range strings.Fields(Normalize(s)) {
		if len(t) >= minLen && !stop.Contains(t) {
			out = append(out, t)
		}
	}
	return out
}

// FuzzTokenizeFiltered checks that TokenizeFiltered equals the reference
// on every input, with and without stopwords, at minLen 0, 1 and 3.
func FuzzTokenizeFiltered(f *testing.F) {
	for _, s := range tokenizeCases {
		f.Add(s.in)
	}
	f.Fuzz(func(t *testing.T, s string) {
		for _, stop := range []Stopwords{nil, DefaultStopwords()} {
			for _, minLen := range []int{0, 1, 3} {
				got, want := TokenizeFiltered(s, stop, minLen), referenceTokens(s, stop, minLen)
				if !slices.Equal(got, want) {
					t.Fatalf("TokenizeFiltered(%q, stop=%v, %d) = %q, want %q", s, stop != nil, minLen, got, want)
				}
			}
		}
	})
}
