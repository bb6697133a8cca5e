package token

import (
	"strings"

	"entityres/internal/entity"
)

// Scheme selects how description text is turned into blocking tokens.
type Scheme int

const (
	// SchemaAgnostic extracts tokens from every attribute value,
	// discarding attribute names — the robust choice for the Web of data,
	// where matching descriptions rarely agree on schema.
	SchemaAgnostic Scheme = iota
	// SchemaAware extracts attribute-qualified tokens (name#token), so
	// tokens only collide within the same attribute.
	SchemaAware
)

// Profiler converts descriptions to token sets under a fixed configuration,
// caching nothing: callers that compare the same record many times profile
// it once themselves, as the matching executors do with their per-call
// sorted token rows.
type Profiler struct {
	Scheme    Scheme
	Stopwords Stopwords
	// MinTokenLen drops tokens shorter than this (0 or 1 keeps all).
	MinTokenLen int
	// IncludeURITokens, when set, also extracts tokens from the local part
	// of the description URI, the signal exploited by prefix-infix-suffix
	// blocking for sparsely described periphery entities.
	IncludeURITokens bool
	// SkipRefValues, when set, ignores attribute values that look like
	// URIs (http://, https://, urn:). Reference values carry relational
	// evidence, consumed by relationship-based resolution — feeding them
	// to textual similarity conflates the two kinds of signal.
	SkipRefValues bool
}

// IsRefValue reports whether a value looks like an entity reference.
func IsRefValue(v string) bool {
	return strings.HasPrefix(v, "http://") ||
		strings.HasPrefix(v, "https://") ||
		strings.HasPrefix(v, "urn:")
}

// DefaultProfiler returns the schema-agnostic profiler with default
// stopwords used by the paper's token-blocking family.
func DefaultProfiler() *Profiler {
	return &Profiler{Scheme: SchemaAgnostic, Stopwords: DefaultStopwords()}
}

// Tokens returns the token list of d under the profiler's scheme, with
// duplicates preserved (multiplicity matters for TF weighting).
func (p *Profiler) Tokens(d *entity.Description) []string {
	var out []string
	for _, a := range d.Attrs {
		if p.SkipRefValues && IsRefValue(a.Value) {
			continue
		}
		ts := TokenizeFiltered(a.Value, p.Stopwords, p.MinTokenLen)
		if p.Scheme == SchemaAware {
			ts = Qualified(a.Name, ts)
		}
		out = append(out, ts...)
	}
	if p.IncludeURITokens && d.URI != "" {
		out = append(out, URITokens(d.URI, p.Stopwords, p.MinTokenLen)...)
	}
	return out
}

// Set returns the distinct tokens of d under the profiler's scheme.
func (p *Profiler) Set(d *entity.Description) Set {
	return NewSet(p.Tokens(d)...)
}

// URITokens extracts tokens from the local name of a URI (the part after
// the last '/' or '#'), which frequently encodes the entity label in LOD
// datasets.
func URITokens(uri string, stop Stopwords, minLen int) []string {
	local := uri
	for i := len(uri) - 1; i >= 0; i-- {
		if uri[i] == '/' || uri[i] == '#' {
			local = uri[i+1:]
			break
		}
	}
	return TokenizeFiltered(local, stop, minLen)
}
