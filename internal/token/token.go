// Package token provides the text normalization and tokenization substrate
// used throughout the entity-resolution pipeline: schema-agnostic token
// extraction for token blocking, q-gram extraction for q-grams blocking and
// edit-based similarity, attribute-qualified tokens for schema-aware keys,
// and token sets with the usual set algebra.
//
// Tokenization choices dominate blocking quality in the Web of data, where
// descriptions share tokens rather than whole values; every tokenizer here
// is deterministic and allocation-conscious because blocking tokenizes
// every value of every description.
//
// Tokenize and TokenizeFiltered scan an ASCII value once: a token is a
// maximal run of [A-Za-z0-9] sliced from the value itself, and only a value
// holding upper case is copied, once, lowercased. From the first byte >=
// 0x80 on, a value takes the Unicode path, strings.Fields(Normalize(s)).
// Both paths yield the same tokens on every input (FuzzTokenizeFiltered).
// A token sliced from its value keeps that value's memory alive, as a token
// of the Unicode path keeps its normalized copy alive.
package token

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Normalize lowercases s and maps every non-alphanumeric rune to a space.
// This is the canonical normalization applied before token extraction so
// that "Jean-Luc" and "jean luc" produce identical tokens.
func Normalize(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range s {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
		default:
			b.WriteByte(' ')
		}
	}
	return b.String()
}

// Tokenize splits s into normalized alphanumeric tokens: the words of
// Normalize(s). Tokens of length one are kept: single-letter initials carry
// signal in person names.
func Tokenize(s string) []string {
	return TokenizeFiltered(s, nil, 0)
}

// TokenizeFiltered splits s into normalized tokens, dropping tokens shorter
// than minLen and then stopwords, which are matched after lowercasing.
func TokenizeFiltered(s string, stop Stopwords, minLen int) []string {
	return appendTokens(make([]string, 0, tokensIn(len(s))), s, stop, minLen)
}

// tokensIn estimates how many tokens n bytes of text hold: one per six
// bytes, about one English word and its separator.
func tokensIn(n int) int { return n/6 + 1 }

// appendTokens appends the filtered tokens of s to dst in one scan of an
// ASCII s. Tokens are sliced from s, or from one lowercased copy of s once
// a token holds upper case. At the first byte >= 0x80 the rest of s, from
// the start of the last run on (the rune may continue it), takes the
// Unicode path; the runs before it end at an ASCII separator, so their
// tokens stand.
func appendTokens(dst []string, s string, stop Stopwords, minLen int) []string {
	lower := ""
	kept, from := len(dst), 0 // dst and s as they were before the last run
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			return appendUnicodeTokens(dst[:kept], s[from:], stop, minLen)
		}
		if !isAlnum(c) {
			i++
			continue
		}
		start, upper := i, false
		kept, from = len(dst), start
		for ; i < len(s) && isAlnum(s[i]); i++ {
			upper = upper || isUpper(s[i])
		}
		if i-start < minLen {
			continue
		}
		t := s[start:i]
		if upper {
			if lower == "" {
				lower = lowerASCII(s)
			}
			t = lower[start:i]
		}
		if !stop.Contains(t) {
			dst = append(dst, t)
		}
	}
	return dst
}

// appendUnicodeTokens is appendTokens on the Unicode path.
func appendUnicodeTokens(dst []string, s string, stop Stopwords, minLen int) []string {
	for _, t := range strings.Fields(Normalize(s)) {
		if len(t) >= minLen && !stop.Contains(t) {
			dst = append(dst, t)
		}
	}
	return dst
}

func isUpper(c byte) bool { return 'A' <= c && c <= 'Z' }

// isAlnum reports whether the ASCII byte c is a letter or a digit.
func isAlnum(c byte) bool {
	return 'a' <= c && c <= 'z' || isUpper(c) || '0' <= c && c <= '9'
}

// lowerASCII returns s with A-Z lowered and every other byte kept, so each
// byte stays at its offset.
func lowerASCII(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if isUpper(c) {
			c += 'a' - 'A'
		}
		b.WriteByte(c)
	}
	return b.String()
}

// QGrams returns the padded character q-grams of the normalized form of s.
// Padding with q−1 sentinel characters on both sides gives edge characters
// the same number of grams as interior ones, the standard construction for
// q-gram similarity and q-grams blocking. It returns nil for q < 1 or an
// empty normalized string.
func QGrams(s string, q int) []string {
	if q < 1 {
		return nil
	}
	norm := strings.Join(Tokenize(s), " ")
	if norm == "" {
		return nil
	}
	if q == 1 {
		out := make([]string, 0, len(norm))
		for _, r := range norm {
			out = append(out, string(r))
		}
		return out
	}
	pad := strings.Repeat("#", q-1)
	padded := []rune(pad + norm + pad)
	n := len(padded) - q + 1
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, string(padded[i:i+q]))
	}
	return out
}

// Qualified prefixes each token with an attribute name, in place, and
// returns tokens: the schema-aware tokens used by standard blocking and
// attribute-qualified token blocking. "name#smith" only collides with
// "name#smith", never with "city#smith".
func Qualified(attr string, tokens []string) []string {
	for i, t := range tokens {
		tokens[i] = attr + "#" + t
	}
	return tokens
}

// Stopwords is a set of tokens excluded from blocking keys. Frequent
// function words produce enormous blocks with no discriminative power.
type Stopwords map[string]struct{}

// NewStopwords builds a stopword set from the given words (normalized).
func NewStopwords(words ...string) Stopwords {
	s := make(Stopwords, len(words))
	for _, w := range words {
		for _, t := range Tokenize(w) {
			s[t] = struct{}{}
		}
	}
	return s
}

// DefaultStopwords covers the high-frequency English function words that
// dominate attribute values in encyclopaedic KBs.
func DefaultStopwords() Stopwords {
	return NewStopwords(
		"a", "an", "and", "are", "as", "at", "be", "by", "for", "from",
		"has", "he", "in", "is", "it", "its", "of", "on", "or", "that",
		"the", "to", "was", "were", "will", "with",
	)
}

// Contains reports whether t is a stopword. A nil set contains nothing.
func (s Stopwords) Contains(t string) bool {
	if s == nil {
		return false
	}
	_, ok := s[t]
	return ok
}
