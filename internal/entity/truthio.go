package entity

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
)

// ReadURIMatches parses a truth file of tab-separated URI pairs (one per
// line, blank lines and #-comments skipped) into a match set over c's IDs.
// Unknown URIs are an error: silently dropping ground truth corrupts every
// downstream metric.
func ReadURIMatches(c *Collection, r io.Reader) (*Matches, error) {
	byURI := make(map[string]ID, c.Len())
	for _, d := range c.All() {
		if d.URI != "" {
			byURI[d.URI] = d.ID
		}
	}
	out := NewMatches()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, "\t")
		if len(parts) != 2 {
			return nil, fmt.Errorf("entity: truth line %d: want two tab-separated URIs, got %d fields", line, len(parts))
		}
		a, okA := byURI[parts[0]]
		if !okA {
			return nil, fmt.Errorf("entity: truth line %d: unknown URI %q", line, parts[0])
		}
		b, okB := byURI[parts[1]]
		if !okB {
			return nil, fmt.Errorf("entity: truth line %d: unknown URI %q", line, parts[1])
		}
		out.Add(a, b)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("entity: truth: %w", err)
	}
	return out, nil
}

// WriteURIMatches serializes a match set as tab-separated URI pairs in
// deterministic (pair-sorted) order. Descriptions without URIs get their
// synthetic urn:entityres:<id> name, mirroring the N-Triples writer.
func WriteURIMatches(w io.Writer, c *Collection, m *Matches) error {
	pairs := m.Pairs()
	slices.SortFunc(pairs, func(x, y Pair) int {
		if x.A != y.A {
			return cmp.Compare(x.A, y.A)
		}
		return cmp.Compare(x.B, y.B)
	})
	bw := bufio.NewWriter(w)
	for _, p := range pairs {
		ua, ub := uriOf(c, p.A), uriOf(c, p.B)
		if _, err := fmt.Fprintf(bw, "%s\t%s\n", ua, ub); err != nil {
			return fmt.Errorf("entity: truth write: %w", err)
		}
	}
	return bw.Flush()
}

// WriteSourceMatches serializes one source's view of a match set — the
// per-source export of a clean-clean interlinking run. Every description
// of the given source with at least one match produces one line, in ID
// order: its URI, a tab, and the comma-joined sorted URIs of its partners
// from the other source(s). Dedup consumers join on the first column;
// cross-checking the two sources' exports reconstructs the pair set.
func WriteSourceMatches(w io.Writer, c *Collection, m *Matches, source int) error {
	bw := bufio.NewWriter(w)
	for _, d := range c.All() {
		if d.Source != source {
			continue
		}
		partners := m.Of(d.ID)
		if len(partners) == 0 {
			continue
		}
		uris := make([]string, 0, len(partners))
		for _, p := range partners {
			uris = append(uris, uriOf(c, p))
		}
		sort.Strings(uris)
		if _, err := fmt.Fprintf(bw, "%s\t%s\n", uriOf(c, d.ID), strings.Join(uris, ",")); err != nil {
			return fmt.Errorf("entity: source match write: %w", err)
		}
	}
	return bw.Flush()
}

func uriOf(c *Collection, id ID) string {
	if d := c.Get(id); d != nil && d.URI != "" {
		return d.URI
	}
	return fmt.Sprintf("urn:entityres:%d", id)
}
