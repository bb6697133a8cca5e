package blocking

import (
	"sort"
	"strings"

	"entityres/internal/entity"
	"entityres/internal/token"
)

// KeyFunc derives the blocking keys of a description; the semantics of the
// keys (whole values, tokens, q-grams, ...) are the algorithm's choice. The
// returned slice belongs to the caller: the block builders sort it in place.
type KeyFunc func(d *entity.Description) []string

// ScalarKeyFunc derives a single sortable key per description, as needed by
// sorted-neighborhood style methods.
type ScalarKeyFunc func(d *entity.Description) string

// WholeValueKeys returns a KeyFunc mapping each attribute value to one
// normalized key qualified by attribute name — the classic relational
// blocking key construction. If attrs is non-empty only those attributes
// contribute keys.
func WholeValueKeys(attrs ...string) KeyFunc {
	want := make(map[string]struct{}, len(attrs))
	for _, a := range attrs {
		want[a] = struct{}{}
	}
	return func(d *entity.Description) []string {
		var out []string
		for _, a := range d.Attrs {
			if len(want) > 0 {
				if _, ok := want[a.Name]; !ok {
					continue
				}
			}
			v := strings.Join(token.Tokenize(a.Value), " ")
			if v == "" {
				continue
			}
			out = append(out, a.Name+"="+v)
		}
		return out
	}
}

// AttributeValueKey returns a ScalarKeyFunc that concatenates the
// normalized values of the given attributes in order — the usual sorted
// neighborhood key (e.g. surname+zip).
func AttributeValueKey(attrs ...string) ScalarKeyFunc {
	return func(d *entity.Description) string {
		var parts []string
		for _, name := range attrs {
			for _, v := range d.Values(name) {
				parts = append(parts, token.Tokenize(v)...)
			}
		}
		return strings.Join(parts, " ")
	}
}

// SortedTokensKey is a schema-agnostic ScalarKeyFunc: all value tokens of
// the description, deduplicated and sorted, joined by spaces. Descriptions
// about the same entity sort near each other regardless of schema.
func SortedTokensKey(p *token.Profiler) ScalarKeyFunc {
	p = p.OrDefault()
	return func(d *entity.Description) string {
		ts := p.Set(d).Sorted()
		return strings.Join(ts, " ")
	}
}

// FirstTokenKey is a cheap ScalarKeyFunc: the alphabetically smallest value
// token. Useful as a second sorted-neighborhood pass.
func FirstTokenKey(p *token.Profiler) ScalarKeyFunc {
	p = p.OrDefault()
	return func(d *entity.Description) string {
		ts := p.Set(d).Sorted()
		if len(ts) == 0 {
			return ""
		}
		return ts[0]
	}
}

// sortIDs sorts a slice of IDs ascending, in place, returning it.
func sortIDs(ids []entity.ID) []entity.ID {
	sort.Ints(ids)
	return ids
}
