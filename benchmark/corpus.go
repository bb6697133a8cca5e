package main

import (
	"fmt"
	"math/rand"
	"strings"

	"entityres/er"
)

// The bounded-head corpus drives the live workloads (live, live-meta,
// serve). internal/datagen cannot: its Zipf head puts about a fifth of all
// records into the top token's block whatever VocabScale is, so a streaming
// resolver — which has no purge — compares a third of all pairs. Here every
// vocabulary pool grows with the entity count, the skew is mild (a quarter
// of each pool is drawn twice as often as the rest) and a hard cap on how
// many descriptions may carry one token bounds the head by construction.
// The per-description candidate count therefore stays flat as the corpus
// grows, which is what lets the workload be scaled by records alone.

const (
	// corpusTopTokenShare and corpusPairShare are the two set-up
	// assertions: no blocking token in more than 0.5 % of descriptions,
	// candidate pairs under 2 % of all pairs.
	corpusTopTokenShare = 0.005
	corpusPairShare     = 0.02
	// corpusDupRatio is the share of entities that get one duplicate.
	corpusDupRatio = 0.5
	// corpusTypo is the per-token probability of noise in a duplicate.
	corpusTypo = 0.03
	// corpusPoolDivisor sizes each pool at entities/6, so a token's block
	// averages nine descriptions; corpusPoolFloor keeps small corpora under
	// the head cap.
	corpusPoolDivisor = 6
	corpusPoolFloor   = 600
	// corpusDupDelay is the largest number of records between an original
	// and its duplicate, so duplicates arrive interleaved, not adjacent.
	corpusDupDelay = 512
)

// corpusRecord is one generated description. MatchOf names the original's
// URI when the record is a duplicate.
type corpusRecord struct {
	URI     string
	Attrs   []er.Attribute
	Entity  int
	MatchOf string
}

// pool is one vocabulary: letter-only words (so each normalizes to one
// token) under a prefix no other pool shares.
type pool struct {
	prefix string
	size   int
}

func (p pool) word(i int) string {
	buf := make([]byte, 0, 8)
	for {
		buf = append(buf, byte('a'+i%26))
		i /= 26
		if i == 0 {
			break
		}
	}
	return p.prefix + string(buf)
}

// corpus generates the bounded-head corpus from a seed. Next streams the
// records; Rerender produces update payloads from the same generator.
type corpus struct {
	rng      *rand.Rand
	entities int
	tokenCap int
	pools    [5]pool // first, last, city, occupation, note
	used     map[string]int
	bases    [][]er.Attribute
	pending  []pendingDup
	emitted  int
}

type pendingDup struct {
	due int
	rec corpusRecord
}

func newCorpus(seed int64, entities int) *corpus {
	size := entities / corpusPoolDivisor
	if size < corpusPoolFloor {
		size = corpusPoolFloor
	}
	// The cap is set a tenth under the asserted share of the expected
	// description count, which absorbs the binomial spread of duplicates.
	expected := float64(entities) * (1 + corpusDupRatio)
	return &corpus{
		rng:      rand.New(rand.NewSource(seed)),
		entities: entities,
		tokenCap: int(0.9 * corpusTopTokenShare * expected),
		pools: [5]pool{
			{"fa", size}, {"la", size}, {"ci", size}, {"oc", size}, {"no", 2 * size},
		},
		used: make(map[string]int),
	}
}

// draw picks a word from pool p whose block still has room for n more
// descriptions. A quarter of the pool is drawn twice as often as the rest.
func (c *corpus) draw(p int, n int) string {
	pl := c.pools[p]
	for {
		var i int
		if c.rng.Float64() < 0.4 {
			i = c.rng.Intn(pl.size / 4)
		} else {
			i = pl.size/4 + c.rng.Intn(pl.size-pl.size/4)
		}
		w := pl.word(i)
		if c.used[w]+n <= c.tokenCap {
			c.used[w] += n
			return w
		}
	}
}

// attr draws attribute k (name, city, occupation, note) afresh.
func (c *corpus) attr(k int, n int) er.Attribute {
	switch k {
	case 0:
		return er.Attribute{Name: "name", Value: c.draw(0, n) + " " + c.draw(1, n)}
	case 1:
		return er.Attribute{Name: "city", Value: c.draw(2, n)}
	case 2:
		return er.Attribute{Name: "occupation", Value: c.draw(3, n)}
	default:
		return er.Attribute{Name: "note", Value: c.draw(4, n) + " " + c.draw(4, n)}
	}
}

// typo replaces one letter with a digit: pool words are letter-only, so a
// noisy token never lands in another word's block.
func (c *corpus) typo(w string) string {
	b := []byte(w)
	b[c.rng.Intn(len(b))] = byte('0' + c.rng.Intn(10))
	return string(b)
}

// Rerender renders entity e again, as a duplicate source would: one
// attribute replaced and light token noise on the rest. It is the payload
// of duplicates and of updates, so ground truth survives an update.
func (c *corpus) Rerender(e int) []er.Attribute {
	base := c.bases[e]
	out := make([]er.Attribute, len(base))
	replaced := c.rng.Intn(len(base))
	for k, a := range base {
		if k == replaced {
			out[k] = c.attr(k, 1)
			continue
		}
		words := strings.Fields(a.Value)
		for i, w := range words {
			if c.rng.Float64() < corpusTypo {
				words[i] = c.typo(w)
			}
		}
		out[k] = er.Attribute{Name: a.Name, Value: strings.Join(words, " ")}
	}
	return out
}

// Next returns the next record, or ok=false once every entity and every
// pending duplicate has been emitted.
func (c *corpus) Next() (corpusRecord, bool) {
	if len(c.pending) > 0 && (c.pending[0].due <= c.emitted || len(c.bases) == c.entities) {
		rec := c.pending[0].rec
		c.pending = c.pending[1:]
		c.emitted++
		return rec, true
	}
	if len(c.bases) == c.entities {
		return corpusRecord{}, false
	}
	e := len(c.bases)
	dup := c.rng.Float64() < corpusDupRatio
	n := 1
	if dup {
		n = 2 // a kept token is copied into the duplicate's description too
	}
	attrs := make([]er.Attribute, 4)
	for k := range attrs {
		attrs[k] = c.attr(k, n)
	}
	c.bases = append(c.bases, attrs)
	rec := corpusRecord{URI: fmt.Sprintf("http://bench.example.org/person/%d", e), Attrs: attrs, Entity: e}
	if dup {
		// Pending duplicates stay ordered by due record: the delay is
		// added to a clock that only moves forward.
		due := c.emitted + 1 + c.rng.Intn(corpusDupDelay)
		if k := len(c.pending); k > 0 && due < c.pending[k-1].due {
			due = c.pending[k-1].due
		}
		c.pending = append(c.pending, pendingDup{due: due, rec: corpusRecord{
			URI:     fmt.Sprintf("http://bench.example.org/person/%d_dup", e),
			Attrs:   c.Rerender(e),
			Entity:  e,
			MatchOf: rec.URI,
		}})
	}
	c.emitted++
	return rec, true
}

// All drains the stream.
func (c *corpus) All() []corpusRecord {
	var out []corpusRecord
	for {
		rec, ok := c.Next()
		if !ok {
			return out
		}
		out = append(out, rec)
	}
}

// checkBoundedHead is the set-up assertion: with the blocker the live
// workloads use, no token's block holds more than corpusTopTokenShare of
// the descriptions, and the blocks suggest fewer than corpusPairShare of
// all pairs. Comparisons are summed per block, which counts a pair once per
// shared token and so bounds the distinct pairs from above.
func checkBoundedHead(recs []corpusRecord) error {
	keys := (&er.TokenBlocking{}).StreamKeyer()
	blocks := make(map[string]int)
	for _, r := range recs {
		seen := make(map[string]struct{})
		for _, k := range keys(&er.Description{URI: r.URI, Attrs: r.Attrs}) {
			if _, dup := seen[k]; !dup {
				seen[k] = struct{}{}
				blocks[k]++
			}
		}
	}
	n := float64(len(recs))
	top, pairs := 0, 0.0
	for _, size := range blocks {
		if size > top {
			top = size
		}
		pairs += float64(size) * float64(size-1) / 2
	}
	if share := float64(top) / n; share > corpusTopTokenShare {
		return fmt.Errorf("corpus: top token covers %.4f of %d descriptions, bound %.4f", share, len(recs), corpusTopTokenShare)
	}
	if share := pairs / (n * (n - 1) / 2); share > corpusPairShare {
		return fmt.Errorf("corpus: candidate pairs are %.4f of all pairs, bound %.4f", share, corpusPairShare)
	}
	return nil
}
