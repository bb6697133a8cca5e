package entity

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func truthCollection(t *testing.T) *Collection {
	t.Helper()
	c := NewCollection(Dirty)
	for _, uri := range []string{"http://kb/a", "http://kb/b", "http://kb/c"} {
		c.MustAdd(NewDescription(uri))
	}
	c.MustAdd(NewDescription("")) // anonymous
	return c
}

func TestReadURIMatches(t *testing.T) {
	c := truthCollection(t)
	in := "# comment\n\nhttp://kb/a\thttp://kb/b\nhttp://kb/b\thttp://kb/c\n"
	m, err := ReadURIMatches(c, strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 2 || !m.Contains(0, 1) || !m.Contains(1, 2) {
		t.Fatalf("matches = %v", m.Pairs())
	}
}

func TestReadURIMatchesErrors(t *testing.T) {
	c := truthCollection(t)
	cases := []string{
		"http://kb/a\n",                     // one field
		"http://kb/a\thttp://kb/a\textra\n", // three fields
		"http://kb/a\thttp://kb/missing\n",  // unknown URI right
		"http://kb/missing\thttp://kb/a\n",  // unknown URI left
	}
	for _, in := range cases {
		if _, err := ReadURIMatches(c, strings.NewReader(in)); err == nil {
			t.Fatalf("accepted %q", in)
		}
	}
}

func TestWriteURIMatchesRoundTrip(t *testing.T) {
	c := truthCollection(t)
	m := NewMatches()
	m.Add(2, 0)
	m.Add(1, 2)
	var buf bytes.Buffer
	if err := WriteURIMatches(&buf, c, m); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Deterministic pair-sorted order.
	if !strings.HasPrefix(out, "http://kb/a\thttp://kb/c\n") {
		t.Fatalf("order wrong:\n%s", out)
	}
	back, err := ReadURIMatches(c, strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 || !back.Contains(0, 2) || !back.Contains(1, 2) {
		t.Fatalf("round trip = %v", back.Pairs())
	}
}

func TestWriteURIMatchesSyntheticURI(t *testing.T) {
	c := truthCollection(t)
	m := NewMatches()
	m.Add(0, 3) // description 3 has no URI
	var buf bytes.Buffer
	if err := WriteURIMatches(&buf, c, m); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "urn:entityres:3") {
		t.Fatalf("synthetic URI missing: %s", buf.String())
	}
}

func TestWriteSourceMatches(t *testing.T) {
	c := NewCollection(CleanClean)
	a := MustID(t, c, NewDescription("http://kb0/a"))
	b := MustID(t, c, NewDescription("http://kb0/b"))
	MustID(t, c, NewDescription("http://kb0/lonely"))
	x := NewDescription("http://kb1/x")
	x.Source = 1
	y := NewDescription("http://kb1/y")
	y.Source = 1
	xid := MustID(t, c, x)
	yid := MustID(t, c, y)
	m := NewMatches()
	m.Add(a, xid)
	m.Add(a, yid)
	m.Add(b, xid)

	var buf bytes.Buffer
	if err := WriteSourceMatches(&buf, c, m, 0); err != nil {
		t.Fatal(err)
	}
	want0 := "http://kb0/a\thttp://kb1/x,http://kb1/y\nhttp://kb0/b\thttp://kb1/x\n"
	if buf.String() != want0 {
		t.Fatalf("source 0 export:\n%q\nwant:\n%q", buf.String(), want0)
	}
	buf.Reset()
	if err := WriteSourceMatches(&buf, c, m, 1); err != nil {
		t.Fatal(err)
	}
	want1 := "http://kb1/x\thttp://kb0/a,http://kb0/b\nhttp://kb1/y\thttp://kb0/a\n"
	if buf.String() != want1 {
		t.Fatalf("source 1 export:\n%q\nwant:\n%q", buf.String(), want1)
	}
}

func MustID(t *testing.T, c *Collection, d *Description) ID {
	t.Helper()
	id, err := c.Add(d)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// shuffledMatches returns a collection of n descriptions with URIs and a
// match set of pairs over it, inserted in shuffled order.
func shuffledMatches(n, pairs int, seed int64) (*Collection, *Matches) {
	c := NewCollection(Dirty)
	for i := 0; i < n; i++ {
		uri := fmt.Sprintf("http://kb/%d", i)
		if i%7 == 0 {
			uri = "" // synthetic urn:entityres:<id> name
		}
		c.MustAdd(NewDescription(uri))
	}
	rng := rand.New(rand.NewSource(seed))
	m := NewMatches()
	for m.Len() < pairs {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			m.Add(a, b)
		}
	}
	return c, m
}

// TestWriteURIMatchesLargeShuffled: 20 k pairs inserted in random order
// render byte-identically to an independently sorted reference.
func TestWriteURIMatchesLargeShuffled(t *testing.T) {
	c, m := shuffledMatches(5000, 20000, 7)
	pairs := m.Pairs()
	sort.Slice(pairs, func(i, j int) bool {
		return pairs[i].A < pairs[j].A || (pairs[i].A == pairs[j].A && pairs[i].B < pairs[j].B)
	})
	var want strings.Builder
	for _, p := range pairs {
		fmt.Fprintf(&want, "%s\t%s\n", uriOf(c, p.A), uriOf(c, p.B))
	}
	var got bytes.Buffer
	if err := WriteURIMatches(&got, c, m); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("rendering differs from the sorted reference (%d vs %d bytes)", got.Len(), want.Len())
	}
}

func BenchmarkWriteURIMatches(b *testing.B) {
	c, m := shuffledMatches(20000, 100000, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WriteURIMatches(io.Discard, c, m); err != nil {
			b.Fatal(err)
		}
	}
}
