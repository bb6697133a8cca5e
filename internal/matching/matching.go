// Package matching implements the entity-matching phase of the framework
// (Fig. 1 of the paper): profile similarity functions over whole
// descriptions, a thresholded Matcher, and executors that run a matcher
// over the candidate pairs suggested by blocking. Matching decisions are
// pairwise; equivalence classes are obtained through
// entity.Matches.Clusters (connected components).
package matching

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"entityres/internal/blocking"
	"entityres/internal/entity"
	"entityres/internal/index"
	"entityres/internal/similarity"
	"entityres/internal/token"
)

// ProfileSimilarity scores pairs of whole descriptions in [0, 1].
type ProfileSimilarity interface {
	// Name identifies the measure in experiment tables.
	Name() string
	// Sim returns the similarity of a and b.
	Sim(a, b *entity.Description) float64
}

// TokenJaccard is the schema-agnostic Jaccard similarity of the two
// descriptions' token sets — robust to schema heterogeneity, blind to
// token importance.
//
// Through the executors (ResolveBlocks, ResolvePairs,
// ResolveBlocksParallel) each record is tokenized once per call and pairs
// are compared as sorted token rows. A direct Sim call still tokenizes both
// sides, which merged profiles (R-Swoosh, iterative blocking) need because
// they exist in no collection. A type that embeds TokenJaccard and
// overrides Sim is a different concrete type, so the executors run its own
// Sim on every pair.
type TokenJaccard struct {
	// Profiler controls tokenization; nil means token.DefaultProfiler.
	Profiler *token.Profiler
}

// Name implements ProfileSimilarity.
func (t *TokenJaccard) Name() string { return "token-jaccard" }

// Sim implements ProfileSimilarity.
func (t *TokenJaccard) Sim(a, b *entity.Description) float64 {
	p := t.Profiler.OrDefault()
	return similarity.Jaccard(p.Set(a), p.Set(b))
}

// TokenContainment is the overlap coefficient |A∩B| / min(|A|,|B|) of the
// two descriptions' token sets. Unlike Jaccard it is not diluted when one
// side accumulates extra attributes, which makes it the right similarity
// for merging-based resolution (R-Swoosh, iterative blocking): a merged
// profile that absorbs new tokens never loses containment against the
// still-unmerged duplicates whose token sets it covers.
//
// The executors tokenize each record once per call and compare sorted
// token rows, exactly as for TokenJaccard; a direct Sim call tokenizes both
// sides, and an embedding type keeps its own Sim.
type TokenContainment struct {
	// Profiler controls tokenization; nil means token.DefaultProfiler.
	Profiler *token.Profiler
}

// Name implements ProfileSimilarity.
func (t *TokenContainment) Name() string { return "token-containment" }

// Sim implements ProfileSimilarity.
func (t *TokenContainment) Sim(a, b *entity.Description) float64 {
	p := t.Profiler.OrDefault()
	return similarity.Overlap(p.Set(a), p.Set(b))
}

// TFIDFCosine is the cosine similarity of TF-IDF weighted token vectors
// under a corpus index: common tokens count little, discriminative tokens
// dominate. Vectors are cached per description pointer, so merged profiles
// (new pointers) are re-vectorized automatically. The cache is guarded so
// the measure is safe for concurrent use by matcher worker pools.
type TFIDFCosine struct {
	ix    *index.Inverted
	prof  *token.Profiler
	mu    sync.RWMutex
	cache map[*entity.Description]similarity.Vector
}

// NewTFIDFCosine indexes the collection and returns the measure.
func NewTFIDFCosine(c *entity.Collection, p *token.Profiler) *TFIDFCosine {
	p = p.OrDefault()
	return &TFIDFCosine{
		ix:    index.Build(c, p),
		prof:  p,
		cache: make(map[*entity.Description]similarity.Vector, c.Len()),
	}
}

// Name implements ProfileSimilarity.
func (t *TFIDFCosine) Name() string { return "tfidf-cosine" }

// Sim implements ProfileSimilarity.
func (t *TFIDFCosine) Sim(a, b *entity.Description) float64 {
	return similarity.Cosine(t.vector(a), t.vector(b))
}

func (t *TFIDFCosine) vector(d *entity.Description) similarity.Vector {
	t.mu.RLock()
	v, ok := t.cache[d]
	t.mu.RUnlock()
	if ok {
		return v
	}
	v = t.ix.TFIDFVector(t.prof.Tokens(d))
	t.mu.Lock()
	t.cache[d] = v
	t.mu.Unlock()
	return v
}

// BestValueJW is the maximum Jaro-Winkler similarity over the cross
// product of the two descriptions' attribute values (optionally restricted
// to the named attributes) — the classic name-matching measure.
type BestValueJW struct {
	// Attrs restricts which attributes contribute values; empty means all.
	Attrs []string
}

// Name implements ProfileSimilarity.
func (m *BestValueJW) Name() string { return "best-value-jw" }

// Sim implements ProfileSimilarity.
func (m *BestValueJW) Sim(a, b *entity.Description) float64 {
	va, vb := m.values(a), m.values(b)
	best := 0.0
	for _, x := range va {
		for _, y := range vb {
			if s := similarity.JaroWinkler(x, y); s > best {
				best = s
			}
		}
	}
	return best
}

func (m *BestValueJW) values(d *entity.Description) []string {
	if len(m.Attrs) == 0 {
		return d.AllValues()
	}
	var out []string
	for _, a := range m.Attrs {
		out = append(out, d.Values(a)...)
	}
	return out
}

// WeightedPart is one component of a Weighted similarity.
type WeightedPart struct {
	Measure ProfileSimilarity
	Weight  float64
}

// Weighted is the normalized weighted sum of component similarities — the
// composite matcher configuration of record-linkage practice.
type Weighted struct {
	Parts []WeightedPart
}

// Name implements ProfileSimilarity.
func (w *Weighted) Name() string { return "weighted" }

// Sim implements ProfileSimilarity.
func (w *Weighted) Sim(a, b *entity.Description) float64 {
	total, sum := 0.0, 0.0
	for _, p := range w.Parts {
		if p.Weight <= 0 {
			continue
		}
		total += p.Weight
		sum += p.Weight * p.Measure.Sim(a, b)
	}
	if total == 0 {
		return 0
	}
	return sum / total
}

// Matcher is a thresholded similarity decision.
type Matcher struct {
	Sim       ProfileSimilarity
	Threshold float64
}

// Name identifies the matcher configuration.
func (m *Matcher) Name() string {
	return fmt.Sprintf("%s@%.2f", m.Sim.Name(), m.Threshold)
}

// Match reports the decision and the underlying similarity.
func (m *Matcher) Match(a, b *entity.Description) (bool, float64) {
	s := m.Sim.Sim(a, b)
	return s >= m.Threshold, s
}

// Result is the outcome of executing a matcher over candidate pairs.
type Result struct {
	Matches     *entity.Matches
	Comparisons int64
}

// ResolveBlocks executes the matcher over every distinct comparison of bs.
// It is ResolveBlocksParallel at one worker: the same neighbourhood walk,
// run inline.
func ResolveBlocks(c *entity.Collection, bs *blocking.Blocks, m *Matcher) Result {
	res, _ := ResolveBlocksParallel(context.Background(), c, bs, m, 1)
	return res
}

// rowForm returns the profiler and the sorted-row kernel that decide m's
// similarity exactly, or ok=false when m.Sim has none. Only the concrete
// types TokenJaccard and TokenContainment have one: a row merge gives
// exactly Sim's value because the intersection and set sizes are the same.
// Types that embed the two and override Sim are different concrete types.
func (m *Matcher) rowForm() (prof *token.Profiler, kernel func(a, b []string) float64, ok bool) {
	switch s := m.Sim.(type) {
	case *TokenJaccard:
		prof, kernel = s.Profiler, similarity.JaccardSorted
	case *TokenContainment:
		prof, kernel = s.Profiler, similarity.OverlapSorted
	default:
		return nil, nil, false
	}
	return prof.OrDefault(), kernel, true
}

// TokenRow returns d's distinct tokens under prof, sorted: the row a
// matcher with a row form compares (see RowProfiler).
func TokenRow(prof *token.Profiler, d *entity.Description) []string {
	row := prof.Tokens(d)
	slices.Sort(row)
	return slices.Compact(row)
}

// describe is the decision of a similarity without a row form: Match on
// the two descriptions.
func (m *Matcher) describe(c *entity.Collection) func(a, b entity.ID) bool {
	return func(a, b entity.ID) bool {
		ok, _ := m.Match(c.Get(a), c.Get(b))
		return ok
	}
}

// bind returns m's decision for one resolve call over pairs. For a
// similarity with a row form (see rowForm) it decides a pair by merging
// the two records' token rows: rows[id] when the caller keeps them (rows
// non-nil, see ResolvePairsRows), otherwise rows it tokenizes once per
// member of pairs for this call. Every other similarity is called through
// Match on the descriptions.
func (m *Matcher) bind(c *entity.Collection, pairs []entity.Pair, rows [][]string) func(a, b entity.ID) bool {
	prof, kernel, ok := m.rowForm()
	if !ok {
		return m.describe(c)
	}
	threshold := m.Threshold
	if rows != nil {
		return func(a, b entity.ID) bool {
			return kernel(rows[a], rows[b]) >= threshold
		}
	}
	own := make(map[entity.ID][]string)
	for _, p := range pairs {
		for _, id := range [2]entity.ID{p.A, p.B} {
			if _, ok := own[id]; !ok {
				own[id] = TokenRow(prof, c.Get(id))
			}
		}
	}
	return func(a, b entity.ID) bool {
		return kernel(own[a], own[b]) >= threshold
	}
}

// RowProfiler returns the profiler whose token rows (see TokenRow) m
// decides pairs on, nil meaning none: ok=false when m's similarity has no
// row form and is called through Match instead.
func (m *Matcher) RowProfiler() (*token.Profiler, bool) {
	prof, _, ok := m.rowForm()
	return prof, ok
}

// SharesRows reports whether m decides pairs on token rows that are
// exactly prof's token lists, sorted and compacted: m's similarity has a
// row form (see rowForm) and its profiler equals prof by value, nil meaning
// the default. Token blocking under prof keys every record by that list,
// so its key lists can be the matcher's rows (ResolveBlocksRows,
// ResolvePairsRows).
func (m *Matcher) SharesRows(prof *token.Profiler) bool {
	own, ok := m.RowProfiler()
	return ok && own.Equal(prof)
}

// bindIndex is bind over the records of an entity index. The rows are
// dense, indexed by ID, so deciding a pair costs no map lookup; the index's
// density guard bounds their number. Given rows covering the index (see
// ResolveBlocksRows) it decides on them as they are. Otherwise the workers
// tokenize chunks of records in parallel, each record in a block once. On
// cancellation it returns ctx.Err() once every worker has stopped.
func (m *Matcher) bindIndex(ctx context.Context, c *entity.Collection, ix *blocking.EntityIndex, workers, chunk int, rows [][]string) (func(a, b entity.ID) bool, error) {
	prof, kernel, ok := m.rowForm()
	if !ok {
		return m.describe(c), nil
	}
	if len(rows) < ix.Records() {
		rows = make([][]string, ix.Records())
		err := forChunks(ctx, len(rows), workers, chunk, func(_, lo, hi int) {
			for id := lo; id < hi; id++ {
				if ix.BlocksPer(id) > 0 {
					rows[id] = TokenRow(prof, c.Get(id))
				}
			}
		})
		if err != nil {
			return nil, err
		}
	}
	threshold := m.Threshold
	return func(a, b entity.ID) bool {
		return kernel(rows[a], rows[b]) >= threshold
	}, nil
}
