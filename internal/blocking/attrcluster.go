package blocking

import (
	"sort"

	"entityres/internal/entity"
	"entityres/internal/similarity"
	"entityres/internal/token"
)

// AttributeClustering is the attribute-clustering blocking of [21]: it
// first clusters attribute names whose value distributions are similar
// (e.g. "name" in one KB with "label" in another), then runs token blocking
// with tokens qualified by the attribute cluster instead of the attribute
// name. Compared to plain token blocking this prevents collisions between
// semantically unrelated attributes ("smith" as a surname vs as a
// profession), raising precision with minimal recall loss.
type AttributeClustering struct {
	// Profiler controls value tokenization; nil means the default profiler.
	Profiler *token.Profiler
	// MinSim is the minimum trigram-set similarity for two attributes to be
	// linked (default 0.1, the permissive setting of the original method —
	// each attribute links only to its best partner anyway).
	MinSim float64
}

// Name implements Blocker.
func (a *AttributeClustering) Name() string { return "attrclustering" }

// Block implements Blocker.
func (a *AttributeClustering) Block(c *entity.Collection) (*Blocks, error) {
	p := a.Profiler.OrDefault()
	minSim := a.MinSim
	if minSim <= 0 {
		minSim = 0.1
	}
	clusterOf := a.clusterAttributes(c, minSim)
	b := newBuilder(c.Kind())
	for _, d := range c.All() {
		var keys []string
		for _, at := range d.Attrs {
			cl, ok := clusterOf[attrRef{source: sourceOfAttr(c, d.Source), name: at.Name}]
			if !ok {
				cl = "~" // glue cluster for attributes never profiled
			}
			for _, t := range token.TokenizeFiltered(at.Value, p.Stopwords, p.MinTokenLen) {
				keys = append(keys, cl+"#"+t)
			}
		}
		b.addDescription(d, keys)
	}
	return b.blocks(), nil
}

// attrRef identifies an attribute within one source.
type attrRef struct {
	source int
	name   string
}

// sourceOfAttr collapses sources for dirty collections so that attribute
// statistics are shared.
func sourceOfAttr(c *entity.Collection, source int) int {
	if c.Kind() == entity.Dirty {
		return 0
	}
	return source
}

// clusterAttributes links every attribute to its most similar attribute of
// the other source (or of the same collection when dirty), using the
// trigram sets of the aggregated values as the attribute signature, and
// returns the connected-component labels.
func (a *AttributeClustering) clusterAttributes(c *entity.Collection, minSim float64) map[attrRef]string {
	// Aggregate a value-trigram signature per attribute.
	sigs := make(map[attrRef]token.Set)
	for _, d := range c.All() {
		src := sourceOfAttr(c, d.Source)
		for _, at := range d.Attrs {
			ref := attrRef{source: src, name: at.Name}
			s, ok := sigs[ref]
			if !ok {
				s = token.NewSet()
				sigs[ref] = s
			}
			for _, g := range token.QGrams(at.Value, 3) {
				s.Add(g)
			}
		}
	}
	refs := make([]attrRef, 0, len(sigs))
	for r := range sigs {
		refs = append(refs, r)
	}
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].source != refs[j].source {
			return refs[i].source < refs[j].source
		}
		return refs[i].name < refs[j].name
	})
	// Union best-match links. For clean-clean, only cross-source links are
	// considered (the bipartite construction of the original algorithm);
	// for dirty, any distinct attribute pair qualifies.
	uf := newStringUF()
	for _, r := range refs {
		best, bestSim := attrRef{}, 0.0
		for _, o := range refs {
			if o == r {
				continue
			}
			if c.Kind() == entity.CleanClean && o.source == r.source {
				continue
			}
			sim := similarity.Jaccard(sigs[r], sigs[o])
			if sim > bestSim {
				best, bestSim = o, sim
			}
		}
		if bestSim >= minSim {
			uf.union(attrKey(r), attrKey(best))
		}
	}
	out := make(map[attrRef]string, len(refs))
	for _, r := range refs {
		out[r] = uf.find(attrKey(r))
	}
	return out
}

func attrKey(r attrRef) string {
	return string(rune('0'+r.source)) + ":" + r.name
}

// stringUF is a tiny union-find over strings for attribute clustering.
type stringUF struct {
	parent map[string]string
}

func newStringUF() *stringUF { return &stringUF{parent: make(map[string]string)} }

func (u *stringUF) find(x string) string {
	p, ok := u.parent[x]
	if !ok {
		u.parent[x] = x
		return x
	}
	if p == x {
		return x
	}
	root := u.find(p)
	u.parent[x] = root
	return root
}

// union merges two sets, keeping the lexicographically smaller root so that
// cluster labels are deterministic.
func (u *stringUF) union(a, b string) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if rb < ra {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
}
