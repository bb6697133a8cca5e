package blocking

import (
	"slices"
	"sort"

	"entityres/internal/entity"
)

// builder accumulates key → members and emits a deterministic block
// collection (blocks sorted by key, members in insertion order).
type builder struct {
	kind entity.Kind
	m    map[string]*Block
}

func newBuilder(kind entity.Kind) *builder {
	return &builder{kind: kind, m: make(map[string]*Block)}
}

// add records that the description id from the given source carries the
// blocking key. Duplicate (key, id) insertions are the caller's concern:
// every blocker deduplicates keys per description first, because a
// description must appear at most once per block.
func (bb *builder) add(key string, id entity.ID, source int) {
	b, ok := bb.m[key]
	if !ok {
		b = &Block{Key: key}
		bb.m[key] = b
	}
	if source == 1 {
		b.S1 = append(b.S1, id)
	} else {
		b.S0 = append(b.S0, id)
	}
}

// addDescription adds the description to the block of every distinct key
// of keys, which it sorts and compacts in place (distinctKeys), and returns
// the distinct keys. A block's members stay in insertion order: the key
// order within one description never reaches them.
func (bb *builder) addDescription(d *entity.Description, keys []string) []string {
	keys = distinctKeys(keys)
	for _, k := range keys {
		bb.add(k, d.ID, d.Source)
	}
	return keys
}

// distinctKeys sorts keys in place, drops duplicates and "", and returns
// the distinct keys: the one key normalization of the batch build and the
// streaming BlockIndex.
func distinctKeys(keys []string) []string {
	slices.Sort(keys)
	keys = slices.Compact(keys)
	if len(keys) > 0 && keys[0] == "" {
		keys = keys[1:]
	}
	return keys
}

// blocks finalizes the collection: keys sorted ascending, comparison-free
// blocks dropped by Blocks.Add.
func (bb *builder) blocks() *Blocks {
	keys := make([]string, 0, len(bb.m))
	for k := range bb.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bs := NewBlocks(bb.kind)
	for _, k := range keys {
		bs.Add(bb.m[k])
	}
	return bs
}
