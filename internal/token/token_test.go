package token

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Jean-Luc PICARD", "jean luc picard"},
		{"a.b,c;d", "a b c d"},
		{"", ""},
		{"123-ABC", "123 abc"},
		{"Ünïcode Straße", "ünïcode straße"},
	}
	for _, c := range cases {
		if got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize("The  Quick-Brown fox! 42")
	want := []string{"the", "quick", "brown", "fox", "42"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
	if Tokenize("   ") != nil && len(Tokenize("   ")) != 0 {
		t.Fatal("blank input should yield no tokens")
	}
}

func TestTokenizeFiltered(t *testing.T) {
	stop := DefaultStopwords()
	got := TokenizeFiltered("The matrix of the rings", stop, 3)
	want := []string{"matrix", "rings"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TokenizeFiltered = %v, want %v", got, want)
	}
	// nil stopwords and minLen 0 keep everything.
	got = TokenizeFiltered("a bb", nil, 0)
	if !reflect.DeepEqual(got, []string{"a", "bb"}) {
		t.Fatalf("unfiltered = %v", got)
	}
}

func TestQGrams(t *testing.T) {
	got := QGrams("ab", 2)
	want := []string{"#a", "ab", "b#"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("QGrams(ab,2) = %v, want %v", got, want)
	}
	if QGrams("", 2) != nil {
		t.Fatal("QGrams on empty should be nil")
	}
	if QGrams("abc", 0) != nil {
		t.Fatal("QGrams with q<1 should be nil")
	}
	if got := QGrams("ab", 1); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("QGrams(ab,1) = %v", got)
	}
}

// Property: padded q-gram count equals len(norm)+q-1 for non-empty strings.
func TestQGramsCountProperty(t *testing.T) {
	f := func(s string) bool {
		const q = 3
		grams := QGrams(s, q)
		norm := Tokenize(s)
		if len(norm) == 0 {
			return grams == nil
		}
		joined := 0
		for i, tok := range norm {
			if i > 0 {
				joined++
			}
			joined += len([]rune(tok))
		}
		return len(grams) == joined+q-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQualified(t *testing.T) {
	got := Qualified("name", []string{"alice", "smith"})
	want := []string{"name#alice", "name#smith"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Qualified = %v", got)
	}
}

func TestStopwords(t *testing.T) {
	s := NewStopwords("The", "AND")
	if !s.Contains("the") || !s.Contains("and") {
		t.Fatal("stopwords should be normalized")
	}
	if s.Contains("fox") {
		t.Fatal("non-stopword reported")
	}
	var nilSet Stopwords
	if nilSet.Contains("the") {
		t.Fatal("nil stopwords should contain nothing")
	}
}

// tokenizeCases are the inputs the ASCII fast path and its Unicode
// fallback must agree on; want is the default-stopword, minLen 0 result.
var tokenizeCases = []struct {
	in   string
	want []string
}{
	{"MiXeD case WORDS", []string{"mixed", "case", "words"}},
	{"route 66 B52 0x7f", []string{"route", "66", "b52", "0x7f"}},
	{"The end", []string{"end"}}, // "the" is a stopword only once lowercased
	{"-- !! .. ##", nil},
	{"tab\tnew\nline\x00nul\x1funit\x7fdel", []string{"tab", "new", "line", "nul", "unit", "del"}},
	{"", nil},
	{"Zürich STRASSE café", []string{"zürich", "strasse", "café"}}, // non-ASCII: fallback
	{"abcÉ de", []string{"abcé", "de"}},                            // the rune continues the last run
	{"Alpha beta, Ünï-Code GAMMA", []string{"alpha", "beta", "ünï", "code", "gamma"}},
}

func TestTokenizeFilteredFastPath(t *testing.T) {
	stop := DefaultStopwords()
	for _, c := range tokenizeCases {
		if got := TokenizeFiltered(c.in, stop, 0); !slices.Equal(got, c.want) {
			t.Errorf("TokenizeFiltered(%q) = %q, want %q", c.in, got, c.want)
		}
		for _, minLen := range []int{0, 1, 3} {
			for _, sw := range []Stopwords{nil, stop} {
				if got, want := TokenizeFiltered(c.in, sw, minLen), referenceTokens(c.in, sw, minLen); !slices.Equal(got, want) {
					t.Errorf("TokenizeFiltered(%q, %d) = %q, reference %q", c.in, minLen, got, want)
				}
			}
		}
	}
}

// TestTokenizeSlicesASCII: an ASCII token without upper case is a slice of
// its input, not a copy.
func TestTokenizeSlicesASCII(t *testing.T) {
	in := "alpha Beta"
	got := Tokenize(in)
	if len(got) != 2 || unsafe.StringData(got[0]) != unsafe.StringData(in) {
		t.Fatalf("Tokenize(%q) = %q does not slice its input", in, got)
	}
	if got[1] != "beta" {
		t.Fatalf("upper-case token = %q, want beta", got[1])
	}
}

func TestProfilerEqual(t *testing.T) {
	def := DefaultProfiler()
	if !(*Profiler)(nil).Equal(def) || !def.Equal(nil) || !(*Profiler)(nil).Equal(nil) {
		t.Fatal("nil must equal the default profiler")
	}
	if (*Profiler)(nil).OrDefault() != (*Profiler)(nil).OrDefault() {
		t.Fatal("OrDefault must return one shared value")
	}
	if DefaultProfiler() == DefaultProfiler() {
		t.Fatal("DefaultProfiler must return a fresh copy")
	}
	for name, q := range map[string]*Profiler{
		"SchemaAware":      {Scheme: SchemaAware, Stopwords: DefaultStopwords()},
		"MinTokenLen":      {Stopwords: DefaultStopwords(), MinTokenLen: 3},
		"IncludeURITokens": {Stopwords: DefaultStopwords(), IncludeURITokens: true},
		"SkipRefValues":    {Stopwords: DefaultStopwords(), SkipRefValues: true},
		"Stopwords":        {Stopwords: NewStopwords("the")},
		"no stopwords":     {},
	} {
		if q.Equal(def) || def.Equal(q) {
			t.Errorf("profiler differing in %s reported equal", name)
		}
	}
	if !(&Profiler{}).Equal(&Profiler{Stopwords: Stopwords{}}) {
		t.Error("nil and empty stopwords must be equal")
	}
}
