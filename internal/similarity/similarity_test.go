package similarity

import (
	"math"
	"testing"
	"testing/quick"

	"entityres/internal/token"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestJaccard(t *testing.T) {
	a := token.NewSet("x", "y", "z")
	b := token.NewSet("y", "z", "w")
	if got := Jaccard(a, b); !almost(got, 0.5) {
		t.Fatalf("Jaccard = %v", got)
	}
	if got := Jaccard(token.NewSet(), token.NewSet()); got != 1 {
		t.Fatalf("Jaccard empty = %v", got)
	}
	if got := Jaccard(a, token.NewSet()); got != 0 {
		t.Fatalf("Jaccard vs empty = %v", got)
	}
}

func TestDiceOverlapCosine(t *testing.T) {
	a := token.NewSet("x", "y")
	b := token.NewSet("y")
	if got := Dice(a, b); !almost(got, 2.0/3.0) {
		t.Fatalf("Dice = %v", got)
	}
	if got := Overlap(a, b); !almost(got, 1) {
		t.Fatalf("Overlap = %v", got)
	}
	if got := CosineSets(a, b); !almost(got, 1/math.Sqrt(2)) {
		t.Fatalf("CosineSets = %v", got)
	}
	empty := token.NewSet()
	for name, got := range map[string]float64{
		"dice":    Dice(empty, empty),
		"overlap": Overlap(empty, empty),
		"cosine":  CosineSets(empty, empty),
	} {
		if got != 1 {
			t.Fatalf("%s on empty pair = %v", name, got)
		}
	}
	if Overlap(a, empty) != 0 || CosineSets(a, empty) != 0 {
		t.Fatal("similarity vs empty should be 0")
	}
}

func TestJaccardSortedAgreesWithSet(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a, b := token.NewSet(), token.NewSet()
		for _, x := range xs {
			a.Add(string(rune('a' + x%12)))
		}
		for _, y := range ys {
			b.Add(string(rune('a' + y%12)))
		}
		return almost(JaccardSorted(a.Sorted(), b.Sorted()), Jaccard(a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOverlapSorted(t *testing.T) {
	a, b := []string{"x", "y"}, []string{"y"}
	if got := OverlapSorted(a, b); got != 1 {
		t.Fatalf("OverlapSorted = %v", got)
	}
	if got := OverlapSorted(nil, nil); got != 1 {
		t.Fatalf("OverlapSorted empty = %v", got)
	}
	if got := OverlapSorted(a, nil); got != 0 {
		t.Fatalf("OverlapSorted vs empty = %v", got)
	}
}

// TestSortedKernelsDoNotAllocate pins the matcher's per-comparison kernels
// at zero allocations.
func TestSortedKernelsDoNotAllocate(t *testing.T) {
	a := []string{"1950", "alice", "france", "painter", "paris", "smith"}
	b := []string{"1950", "alicia", "artist", "paris", "smith"}
	for name, kernel := range map[string]func(a, b []string) float64{
		"jaccard": JaccardSorted,
		"overlap": OverlapSorted,
	} {
		if n := testing.AllocsPerRun(100, func() { benchSink = kernel(a, b) }); n != 0 {
			t.Errorf("%s: %v allocs per run, want 0", name, n)
		}
	}
}

func TestIntersectSortedSize(t *testing.T) {
	if got := IntersectSortedSize([]string{"a", "c", "e"}, []string{"b", "c", "e", "f"}); got != 2 {
		t.Fatalf("IntersectSortedSize = %d", got)
	}
	if got := IntersectSortedSize(nil, []string{"a"}); got != 0 {
		t.Fatalf("IntersectSortedSize nil = %d", got)
	}
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"kitten", "sitting", 3},
		{"", "abc", 3},
		{"abc", "", 3},
		{"same", "same", 0},
		{"ab", "ba", 2},
		{"flaw", "lawn", 2},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// Metric properties of Levenshtein on small random strings: symmetry,
// identity, triangle inequality.
func TestLevenshteinMetricProperties(t *testing.T) {
	gen := func(n uint8) string {
		s := make([]byte, n%6)
		for i := range s {
			s[i] = 'a' + byte(i*7+int(n))%3
		}
		return string(s)
	}
	f := func(x, y, z uint8) bool {
		a, b, c := gen(x), gen(y), gen(z)
		dab, dba := Levenshtein(a, b), Levenshtein(b, a)
		if dab != dba {
			return false
		}
		if Levenshtein(a, a) != 0 {
			return false
		}
		return Levenshtein(a, c) <= dab+Levenshtein(b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDamerauLevenshtein(t *testing.T) {
	if got := DamerauLevenshtein("ab", "ba"); got != 1 {
		t.Fatalf("transposition cost = %d, want 1", got)
	}
	if got := DamerauLevenshtein("smith", "smiht"); got != 1 {
		t.Fatalf("DamerauLevenshtein = %d", got)
	}
	if got := DamerauLevenshtein("", "xy"); got != 2 {
		t.Fatalf("empty case = %d", got)
	}
	if got := DamerauLevenshtein("xy", ""); got != 2 {
		t.Fatalf("empty case = %d", got)
	}
}

func TestNormalizedSims(t *testing.T) {
	if got := LevenshteinSim("", ""); got != 1 {
		t.Fatalf("LevenshteinSim empty = %v", got)
	}
	if got := LevenshteinSim("abcd", "abcd"); got != 1 {
		t.Fatalf("identical = %v", got)
	}
	if got := LevenshteinSim("abcd", "wxyz"); got != 0 {
		t.Fatalf("disjoint = %v", got)
	}
	if got := DamerauSim("ab", "ba"); !almost(got, 0.5) {
		t.Fatalf("DamerauSim = %v", got)
	}
}

func TestJaro(t *testing.T) {
	if got := Jaro("martha", "marhta"); !almost(got, 0.944444444444444) {
		t.Fatalf("Jaro(martha,marhta) = %v", got)
	}
	if got := Jaro("dixon", "dicksonx"); math.Abs(got-0.7667) > 1e-3 {
		t.Fatalf("Jaro(dixon,dicksonx) = %v", got)
	}
	if Jaro("", "") != 1 || Jaro("a", "") != 0 {
		t.Fatal("Jaro empty cases")
	}
	if Jaro("abc", "xyz") != 0 {
		t.Fatal("Jaro disjoint should be 0")
	}
}

func TestJaroWinkler(t *testing.T) {
	if got := JaroWinkler("martha", "marhta"); !almost(got, 0.961111111111111) {
		t.Fatalf("JaroWinkler = %v", got)
	}
	// Prefix boost never lowers the score.
	f := func(x, y uint8) bool {
		a := string([]byte{'a' + x%4, 'b', 'c' + y%4})
		b := string([]byte{'a' + y%4, 'b', 'c' + x%4})
		return JaroWinkler(a, b) >= Jaro(a, b)-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQGramSim(t *testing.T) {
	if got := QGramSim("smith", "smith", 2); got != 1 {
		t.Fatalf("identical q-gram sim = %v", got)
	}
	if got := QGramSim("smith", "smyth", 2); got <= 0 || got >= 1 {
		t.Fatalf("near-match q-gram sim = %v", got)
	}
}

func TestMongeElkan(t *testing.T) {
	a := []string{"alice", "smith"}
	b := []string{"smith", "alicia"}
	s := MongeElkan(a, b, nil)
	if s <= 0.8 || s > 1 {
		t.Fatalf("MongeElkan = %v", s)
	}
	if MongeElkan(nil, nil, nil) != 1 {
		t.Fatal("MongeElkan empty pair should be 1")
	}
	if MongeElkan(a, nil, nil) != 0 {
		t.Fatal("MongeElkan vs empty should be 0")
	}
	sym := MongeElkanSym(a, b, nil)
	if !almost(sym, (MongeElkan(a, b, nil)+MongeElkan(b, a, nil))/2) {
		t.Fatal("MongeElkanSym mismatch")
	}
}

func TestVectorCosine(t *testing.T) {
	a := Vector{"x": 1, "y": 2}
	b := Vector{"x": 1, "y": 2}
	if got := Cosine(a, b); !almost(got, 1) {
		t.Fatalf("Cosine identical = %v", got)
	}
	if got := Cosine(a, Vector{"z": 5}); got != 0 {
		t.Fatalf("Cosine orthogonal = %v", got)
	}
	if Cosine(Vector{}, Vector{}) != 1 {
		t.Fatal("Cosine empty pair should be 1")
	}
	if Cosine(a, Vector{}) != 0 {
		t.Fatal("Cosine vs empty should be 0")
	}
	if got := a.Dot(b); !almost(got, 5) {
		t.Fatalf("Dot = %v", got)
	}
	if got := a.Norm(); !almost(got, math.Sqrt(5)) {
		t.Fatalf("Norm = %v", got)
	}
}

// All measures stay within [0,1] on random token material.
func TestRangeProperty(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		var sa, sb []string
		for _, x := range xs {
			sa = append(sa, string(rune('a'+x%10)))
		}
		for _, y := range ys {
			sb = append(sb, string(rune('a'+y%10)))
		}
		a, b := token.NewSet(sa...), token.NewSet(sb...)
		stra, strb := "", ""
		for _, s := range sa {
			stra += s
		}
		for _, s := range sb {
			strb += s
		}
		vals := []float64{
			Jaccard(a, b), Dice(a, b), Overlap(a, b), CosineSets(a, b),
			LevenshteinSim(stra, strb), DamerauSim(stra, strb),
			Jaro(stra, strb), JaroWinkler(stra, strb),
			MongeElkan(sa, sb, nil),
		}
		for _, v := range vals {
			if v < -1e-12 || v > 1+1e-12 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
