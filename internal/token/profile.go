package token

import (
	"maps"
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
// sorted token rows. Tokens runs the single-scan ASCII tokenizer of
// TokenizeFiltered on every value. A nil *Profiler in a configuration means
// the shared, read-only default (OrDefault); DefaultProfiler hands out a
// fresh copy for callers that change it.
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
// stopwords used by the paper's token-blocking family. Every call builds a
// fresh copy, so the caller may change it; a nil *Profiler field that means
// "the default" reads the one shared value instead (see OrDefault).
func DefaultProfiler() *Profiler {
	return &Profiler{Scheme: SchemaAgnostic, Stopwords: DefaultStopwords()}
}

// sharedDefault is the default profiler every nil-profiler default reads.
// Nothing may change it.
var sharedDefault = DefaultProfiler()

// OrDefault returns p, or the shared default profiler when p is nil. The
// shared value is read-only: a caller that wants to change a default
// profiler starts from DefaultProfiler instead.
func (p *Profiler) OrDefault() *Profiler {
	if p == nil {
		return sharedDefault
	}
	return p
}

// Equal reports whether p and q produce the same tokens for every
// description: every field agrees by value, stopwords compared as sets, and
// nil means the default profiler.
func (p *Profiler) Equal(q *Profiler) bool {
	p, q = p.OrDefault(), q.OrDefault()
	return p.Scheme == q.Scheme && p.MinTokenLen == q.MinTokenLen &&
		p.IncludeURITokens == q.IncludeURITokens && p.SkipRefValues == q.SkipRefValues &&
		maps.Equal(p.Stopwords, q.Stopwords)
}

// Tokens returns the token list of d under the profiler's scheme, with
// duplicates preserved (multiplicity matters for TF weighting). Every
// value's tokens go straight into the one returned slice.
func (p *Profiler) Tokens(d *entity.Description) []string {
	size := len(d.URI)
	for _, a := range d.Attrs {
		size += len(a.Value)
	}
	out := make([]string, 0, tokensIn(size))
	for _, a := range d.Attrs {
		if p.SkipRefValues && IsRefValue(a.Value) {
			continue
		}
		from := len(out)
		out = appendTokens(out, a.Value, p.Stopwords, p.MinTokenLen)
		if p.Scheme == SchemaAware {
			Qualified(a.Name, out[from:])
		}
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
	return TokenizeFiltered(uri[strings.LastIndexAny(uri, "/#")+1:], stop, minLen)
}
