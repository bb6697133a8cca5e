package blocking

import (
	"math"
	"sort"
	"strings"

	"entityres/internal/entity"
	"entityres/internal/token"
)

// ExtendedQGrams is extended q-grams blocking: instead of using individual
// q-grams as blocking keys (high recall, terrible precision), each token's
// q-gram set is combined into sub-keys of ⌈T·N⌉ grams, so two descriptions
// share a block only when a substantial portion of some token's grams
// agrees. T close to 1 approaches whole-token keys; small T approaches
// plain q-grams blocking.
type ExtendedQGrams struct {
	// Q is the gram length (< 2 defaults to 3).
	Q int
	// T is the combination threshold in (0,1] (outside defaults to 0.8):
	// sub-keys contain ⌈T·N⌉ of a token's N grams.
	T float64
	// MaxCombinations caps the per-token sub-key count (default 32); when
	// the binomial count would exceed it, contiguous gram windows are used
	// instead of all combinations, which preserves the key length
	// guarantee at a bounded cost.
	MaxCombinations int
	// Profiler controls tokenization; nil means token.DefaultProfiler.
	Profiler *token.Profiler
}

// Name implements Blocker.
func (e *ExtendedQGrams) Name() string { return "extqgrams" }

// Block implements Blocker.
func (e *ExtendedQGrams) Block(c *entity.Collection) (*Blocks, error) {
	p := e.Profiler.OrDefault()
	q := e.Q
	if q < 2 {
		q = 3
	}
	t := e.T
	if t <= 0 || t > 1 {
		t = 0.8
	}
	maxCombos := e.MaxCombinations
	if maxCombos <= 0 {
		maxCombos = 32
	}
	b := newBuilder(c.Kind())
	for _, d := range c.All() {
		var keys []string
		for tok := range p.Set(d) {
			keys = append(keys, extendedKeys(tok, q, t, maxCombos)...)
		}
		b.addDescription(d, keys)
	}
	return b.blocks(), nil
}

// extendedKeys derives the sub-keys of one token.
func extendedKeys(tok string, q int, t float64, maxCombos int) []string {
	grams := token.QGrams(tok, q)
	n := len(grams)
	if n == 0 {
		return nil
	}
	k := int(math.Ceil(t * float64(n)))
	if k < 1 {
		k = 1
	}
	if k >= n {
		// Single key: all grams (equivalent to the whole padded token).
		return []string{strings.Join(grams, "")}
	}
	if binomial(n, k) > maxCombos {
		// Contiguous windows of k grams: n−k+1 keys, each still covering
		// T of the token.
		keys := make([]string, 0, n-k+1)
		for i := 0; i+k <= n; i++ {
			keys = append(keys, strings.Join(grams[i:i+k], ""))
		}
		return keys
	}
	// All k-combinations in lexicographic index order.
	var keys []string
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		parts := make([]string, k)
		for i, j := range idx {
			parts[i] = grams[j]
		}
		keys = append(keys, strings.Join(parts, ""))
		// Advance the combination.
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			break
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
	sort.Strings(keys)
	return keys
}

// binomial returns C(n, k), saturating at math.MaxInt32 to avoid overflow.
func binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	res := 1
	for i := 1; i <= k; i++ {
		res = res * (n - k + i) / i
		if res > math.MaxInt32 {
			return math.MaxInt32
		}
	}
	return res
}
