package blocking

import (
	"fmt"

	"entityres/internal/entity"
	"entityres/internal/index"
)

// StreamableBlocker is a KeyedBlocker whose key function is independent of
// the collection: the blocking keys of a description depend only on the
// description itself, never on corpus-wide statistics. That independence is
// what makes the blocker's output maintainable under a stream of inserts,
// updates and deletes — a description entering or leaving the collection
// changes only the blocks named by its own keys. Token, standard and
// q-grams blocking qualify; attribute clustering and prefix-infix-suffix
// blocking (collection-wide precomputation) and suffix-array blocking
// (block refinement couples blocks through global size bounds) do not.
type StreamableBlocker interface {
	KeyedBlocker
	// StreamKeyer returns the collection-independent key function.
	StreamKeyer() KeyFunc
}

// StreamKeyer implements StreamableBlocker.
func (t *TokenBlocking) StreamKeyer() KeyFunc { return t.Keyer(nil) }

// StreamKeyer implements StreamableBlocker.
func (s *StandardBlocking) StreamKeyer() KeyFunc { return s.Keyer(nil) }

// StreamKeyer implements StreamableBlocker.
func (q *QGramsBlocking) StreamKeyer() KeyFunc { return q.Keyer(nil) }

// BlockIndex is the incremental form of a keyed blocker's output: the
// key → members mapping maintained under single-description Add and Remove,
// with the posting lists and key document frequencies kept by an
// index.Inverted underneath. Materializing it with Blocks yields exactly
// the collection the batch build (Blocker.Block) would produce for the
// same live descriptions; Keys and Postings expose, for one description,
// only the blocks its keys touch — the comparison frontier the streaming
// resolver walks.
//
// A BlockIndex is not safe for concurrent mutation; the streaming resolver
// serializes operations.
type BlockIndex struct {
	kind entity.Kind
	ix   *index.Inverted
	// source records each live member's source index (S0/S1 split).
	source map[entity.ID]int
	// keys records each live member's distinct sorted key set, so Remove
	// and re-keying on update need no access to the description.
	keys map[entity.ID][]string
	// observers are notified on every membership change (see Observe).
	observers []MembershipObserver
}

// MembershipObserver is notified as a BlockIndex's membership changes, so
// derived structures — the incrementally weighted blocking graph of
// metablocking.WeightedGraph above all — stay current without re-scanning
// the index. Keys are the description's distinct sorted key set, exactly
// as indexed.
type MembershipObserver interface {
	// AddDocument is invoked after the description has been indexed: the
	// index already lists id among the members of each key.
	AddDocument(bi *BlockIndex, id entity.ID, source int, keys []string)
	// RemoveDocument is invoked before the description is un-indexed: the
	// index still lists id among the members of each key, so the observer
	// can see the membership the departure dissolves.
	RemoveDocument(bi *BlockIndex, id entity.ID, source int, keys []string)
}

// Observe registers an observer for subsequent membership changes.
// Observers are invoked in registration order, only for successful Add and
// Remove calls, and must not mutate the index from within a notification.
func (bi *BlockIndex) Observe(o MembershipObserver) {
	if o != nil {
		bi.observers = append(bi.observers, o)
	}
}

// Postings returns key's live members in indexing order (do not mutate).
func (bi *BlockIndex) Postings(key string) []index.Posting { return bi.ix.Postings(key) }

// SourceOf returns the source index the description was indexed under and
// whether it is indexed.
func (bi *BlockIndex) SourceOf(id entity.ID) (int, bool) {
	s, ok := bi.source[id]
	return s, ok
}

// NewBlockIndex returns an empty incremental block index for the given
// resolution setting.
func NewBlockIndex(kind entity.Kind) *BlockIndex {
	return &BlockIndex{
		kind:   kind,
		ix:     index.New(),
		source: make(map[entity.ID]int),
		keys:   make(map[entity.ID][]string),
	}
}

// Kind returns the resolution setting of the index.
func (bi *BlockIndex) Kind() entity.Kind { return bi.kind }

// Len returns the number of indexed descriptions.
func (bi *BlockIndex) Len() int { return len(bi.keys) }

// NumKeys returns the number of distinct live blocking keys.
func (bi *BlockIndex) NumKeys() int { return bi.ix.NumTokens() }

// DF returns how many live descriptions carry the key.
func (bi *BlockIndex) DF(key string) int { return bi.ix.DF(key) }

// Keys returns the distinct sorted keys the description was indexed under
// (owned by the index; do not mutate), or nil when it is not indexed.
func (bi *BlockIndex) Keys(id entity.ID) []string { return bi.keys[id] }

// DistinctKeys normalizes a raw key slice exactly the way BlockIndex.Add
// indexes it: empty keys dropped, duplicates removed, the result sorted
// ascending. It is exported so layers that reason about a description's
// indexed key set without an index at hand — the sharded resolver's
// cross-shard pair-ownership rule above all — normalize identically.
func DistinctKeys(keys []string) []string {
	return distinctKeys(append(make([]string, 0, len(keys)), keys...))
}

// Add indexes a description under its blocking keys. Keys are deduplicated
// and empty keys dropped, mirroring the batch builder. Adding an ID that is
// already indexed is an error: update is Remove followed by Add.
func (bi *BlockIndex) Add(id entity.ID, source int, keys []string) error {
	if _, dup := bi.keys[id]; dup {
		return fmt.Errorf("blocking: description %d already indexed", id)
	}
	switch bi.kind {
	case entity.CleanClean:
		if source != 0 && source != 1 {
			return fmt.Errorf("blocking: clean-clean index requires source 0 or 1, got %d", source)
		}
	default:
		if source != 0 {
			return fmt.Errorf("blocking: dirty index requires source 0, got %d", source)
		}
	}
	distinct := DistinctKeys(keys)
	bi.keys[id] = distinct
	bi.source[id] = source
	bi.ix.AddDocument(id, distinct)
	for _, o := range bi.observers {
		o.AddDocument(bi, id, source, distinct)
	}
	return nil
}

// Remove un-indexes a description, updating only the posting lists of its
// own keys. It reports whether the description was indexed.
func (bi *BlockIndex) Remove(id entity.ID) bool {
	keys, ok := bi.keys[id]
	if !ok {
		return false
	}
	for _, o := range bi.observers {
		o.RemoveDocument(bi, id, bi.source[id], keys)
	}
	bi.ix.RemoveDocument(id, keys)
	delete(bi.keys, id)
	delete(bi.source, id)
	return true
}

// Blocks materializes the full block collection of the live descriptions:
// keys ascending, members ascending by ID, comparison-free blocks dropped —
// byte-identical to the batch build of the same blocker over a collection
// holding the live descriptions with the same IDs.
func (bi *BlockIndex) Blocks() *Blocks {
	out := NewBlocks(bi.kind)
	for _, k := range bi.ix.Tokens() {
		b := &Block{Key: k}
		for _, p := range bi.ix.Postings(k) {
			if bi.source[p.Doc] == 1 {
				b.S1 = append(b.S1, p.Doc)
			} else {
				b.S0 = append(b.S0, p.Doc)
			}
		}
		sortIDs(b.S0)
		sortIDs(b.S1)
		out.Add(b)
	}
	return out
}
