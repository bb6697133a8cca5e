package similarity

import (
	"slices"
	"strings"
	"testing"

	"entityres/internal/token"
)

// FuzzSortedKernels checks that the merge kernels over sorted,
// duplicate-free token rows return bit for bit what the set measures
// return over the same tokens, empty sides included: the matcher relies on
// that to compare rows instead of sets without moving any decision.
func FuzzSortedKernels(f *testing.F) {
	for _, s := range [][2]string{
		{"alice smith paris", "smith alice rome"},
		{"", ""},
		{"a", ""},
		{"", "b b b"},
		{"x x y y z", "y z z w"},
		{"über straße 日本", "strasse über 日本 日本"},
		{"name#alice city#paris", "label#alice city#paris"},
	} {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, x, y string) {
		xs, ys := strings.Fields(x), strings.Fields(y)
		a, b := token.NewSet(xs...), token.NewSet(ys...)
		ra, rb := sortedRow(xs), sortedRow(ys)
		if got, want := JaccardSorted(ra, rb), Jaccard(a, b); got != want {
			t.Fatalf("JaccardSorted(%q, %q) = %v, Jaccard = %v", ra, rb, got, want)
		}
		if got, want := OverlapSorted(ra, rb), Overlap(a, b); got != want {
			t.Fatalf("OverlapSorted(%q, %q) = %v, Overlap = %v", ra, rb, got, want)
		}
	})
}

// sortedRow sorts and deduplicates a copy of tokens.
func sortedRow(tokens []string) []string {
	row := slices.Clone(tokens)
	slices.Sort(row)
	return slices.Compact(row)
}
