package blocking

import (
	"strings"

	"entityres/internal/entity"
	"entityres/internal/token"
)

// PrefixInfixSuffix approximates the prefix-infix-suffix URI blocking of
// [20]: LOD URIs share a per-source prefix (scheme + host + namespace) and
// often a suffix pattern, while the infix carries the entity-specific
// signal. The blocker strips the longest common URI prefix per source and
// blocks on (a) the full infix, (b) the infix tokens, and (c) the ordinary
// value tokens, so sparsely described periphery entities whose URIs embed
// their label are still blocked together.
type PrefixInfixSuffix struct {
	// Profiler controls value tokenization; nil means the default profiler.
	Profiler *token.Profiler
}

// Name implements Blocker.
func (ps *PrefixInfixSuffix) Name() string { return "prefixinfixsuffix" }

// Keyer implements KeyedBlocker. The longest-common-prefix scan is the
// only collection-wide pass; it happens here, once, so the returned
// KeyFunc is a pure per-description function safe for concurrent shards.
func (ps *PrefixInfixSuffix) Keyer(c *entity.Collection) KeyFunc {
	p := ps.Profiler.OrDefault()
	prefixes := commonURIPrefixes(c)
	return func(d *entity.Description) []string {
		keys := p.Tokens(d)
		if d.URI != "" {
			infix := strings.TrimPrefix(d.URI, prefixes[d.Source])
			if norm := strings.Join(token.Tokenize(infix), " "); norm != "" {
				keys = append(keys, "uri:"+norm)
			}
			keys = append(keys, token.TokenizeFiltered(infix, p.Stopwords, p.MinTokenLen)...)
		}
		return keys
	}
}

// Block implements Blocker.
func (ps *PrefixInfixSuffix) Block(c *entity.Collection) (*Blocks, error) {
	return buildFromKeys(c, ps.Keyer(c)), nil
}

// commonURIPrefixes computes the longest common prefix of the URIs of each
// source (empty when a source has no URIs).
func commonURIPrefixes(c *entity.Collection) [2]string {
	var prefixes [2]string
	var seen [2]bool
	for _, d := range c.All() {
		if d.URI == "" {
			continue
		}
		s := d.Source
		if !seen[s] {
			prefixes[s] = d.URI
			seen[s] = true
			continue
		}
		prefixes[s] = commonPrefix(prefixes[s], d.URI)
	}
	// A useful prefix ends at a URI separator; trim back to the last one so
	// we never split inside an entity name.
	for s, pre := range prefixes {
		if i := strings.LastIndexAny(pre, "/#"); i >= 0 {
			prefixes[s] = pre[:i+1]
		} else {
			prefixes[s] = ""
		}
	}
	return prefixes
}

func commonPrefix(a, b string) string {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return a[:i]
}
