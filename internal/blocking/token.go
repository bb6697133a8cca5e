package blocking

import (
	"entityres/internal/entity"
	"entityres/internal/token"
)

// TokenBlocking is the schema-agnostic token blocking of Papadakis et al.
// ([21], [20] in the paper): one block per distinct token appearing in any
// attribute value, containing every description whose values mention the
// token. It is the robust default for the Web of data because it assumes
// nothing about schemas — at the cost of many redundant and superfluous
// comparisons, which block post-processing and meta-blocking then remove.
type TokenBlocking struct {
	// Profiler controls tokenization; nil means token.DefaultProfiler.
	Profiler *token.Profiler
}

// Name implements Blocker.
func (t *TokenBlocking) Name() string { return "token" }

// Keyer implements KeyedBlocker.
func (t *TokenBlocking) Keyer(*entity.Collection) KeyFunc {
	return t.Profiler.OrDefault().Tokens
}

// Block implements Blocker.
func (t *TokenBlocking) Block(c *entity.Collection) (*Blocks, error) {
	return buildFromKeys(c, t.Keyer(c)), nil
}

// StandardBlocking is classic key-based blocking for (semi-)structured
// records: descriptions agreeing on a whole blocking-key value share a
// block. Under schema heterogeneity it collapses (matching descriptions
// rarely agree on attribute names), which experiment E1 demonstrates.
type StandardBlocking struct {
	// Keys derives the blocking keys; nil means WholeValueKeys() over all
	// attributes. A caller-supplied KeyFunc must be safe for concurrent
	// use on distinct descriptions when the blocker runs sharded.
	Keys KeyFunc
}

// Name implements Blocker.
func (s *StandardBlocking) Name() string { return "standard" }

// Keyer implements KeyedBlocker.
func (s *StandardBlocking) Keyer(*entity.Collection) KeyFunc {
	if s.Keys == nil {
		return WholeValueKeys()
	}
	return s.Keys
}

// Block implements Blocker.
func (s *StandardBlocking) Block(c *entity.Collection) (*Blocks, error) {
	return buildFromKeys(c, s.Keyer(c)), nil
}

// QGramsBlocking maps every blocking key to its padded character q-grams,
// so descriptions share a block when any key pair shares a q-gram —
// tolerant to typos at the cost of more, larger blocks.
type QGramsBlocking struct {
	// Q is the gram length; values < 2 default to 3.
	Q int
	// Profiler controls the underlying token extraction; nil means
	// token.DefaultProfiler.
	Profiler *token.Profiler
}

// Name implements Blocker.
func (q *QGramsBlocking) Name() string { return "qgrams" }

// Keyer implements KeyedBlocker.
func (q *QGramsBlocking) Keyer(*entity.Collection) KeyFunc {
	p := q.Profiler.OrDefault()
	size := q.Q
	if size < 2 {
		size = 3
	}
	return func(d *entity.Description) []string {
		var keys []string
		for t := range p.Set(d) {
			keys = append(keys, token.QGrams(t, size)...)
		}
		return keys
	}
}

// Block implements Blocker.
func (q *QGramsBlocking) Block(c *entity.Collection) (*Blocks, error) {
	return buildFromKeys(c, q.Keyer(c)), nil
}

// SuffixArrayBlocking generates, for every blocking token, its suffixes of
// at least MinLen characters; descriptions sharing a sufficiently long
// suffix share a block. Oversized blocks (suffixes shared by more than
// MaxBlockSize descriptions) are dropped, following the original
// suffix-array method.
type SuffixArrayBlocking struct {
	// MinLen is the minimum suffix length (default 4).
	MinLen int
	// MaxBlockSize drops blocks larger than this (default 50).
	MaxBlockSize int
	// Profiler controls tokenization; nil means token.DefaultProfiler.
	Profiler *token.Profiler
}

// Name implements Blocker.
func (s *SuffixArrayBlocking) Name() string { return "suffix" }

// Keyer implements KeyedBlocker.
func (s *SuffixArrayBlocking) Keyer(*entity.Collection) KeyFunc {
	p := s.Profiler.OrDefault()
	minLen := s.MinLen
	if minLen <= 0 {
		minLen = 4
	}
	return func(d *entity.Description) []string {
		var keys []string
		for t := range p.Set(d) {
			r := []rune(t)
			for i := 0; i+minLen <= len(r); i++ {
				keys = append(keys, string(r[i:]))
			}
		}
		return keys
	}
}

// RefineBlocks implements BlockRefiner: drop blocks above MaxBlockSize.
func (s *SuffixArrayBlocking) RefineBlocks(all *Blocks) *Blocks {
	maxSize := s.MaxBlockSize
	if maxSize <= 0 {
		maxSize = 50
	}
	out := NewBlocks(all.Kind())
	for _, blk := range all.All() {
		if blk.Size() <= maxSize {
			out.Add(blk)
		}
	}
	return out
}

// Block implements Blocker.
func (s *SuffixArrayBlocking) Block(c *entity.Collection) (*Blocks, error) {
	return s.RefineBlocks(buildFromKeys(c, s.Keyer(c))), nil
}
