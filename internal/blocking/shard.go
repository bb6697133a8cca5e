package blocking

import (
	"context"
	"runtime"
	"sync"

	"entityres/internal/entity"
)

// KeyedBlocker is implemented by blockers whose block collection is fully
// determined by a per-description key function: every description carrying
// key k lands in block k, independently of every other description. That
// independence is what makes the index build shardable — disjoint slices of
// the collection can be keyed concurrently and the per-shard partial
// indexes merged without changing the result.
type KeyedBlocker interface {
	Blocker
	// Keyer returns the key function for c, with all collection-wide
	// precomputation (profiler defaults, URI prefixes, ...) resolved up
	// front. The returned function must be safe for concurrent use by
	// multiple goroutines on distinct descriptions.
	Keyer(c *entity.Collection) KeyFunc
}

// BlockRefiner is implemented by keyed blockers that post-process the
// built collection (e.g. suffix-array blocking drops oversized blocks).
// BuildSharded applies the refinement after the shard merge so that the
// sharded build reproduces Block exactly.
type BlockRefiner interface {
	RefineBlocks(bs *Blocks) *Blocks
}

// buildFromKeys runs the sequential index build shared by every keyed
// blocker's Block method: key each description in ID order, accumulate
// key → members, emit the sorted block collection.
func buildFromKeys(c *entity.Collection, keys KeyFunc) *Blocks {
	bb := newBuilder(c.Kind())
	for _, d := range c.All() {
		bb.addDescription(d, keys(d))
	}
	return bb.blocks()
}

// cancelCheckStride bounds how many descriptions a shard keys between
// context checks.
const cancelCheckStride = 1024

// BuildSharded builds kb's block collection over c with the collection
// sharded across concurrent workers: each shard keys a contiguous ID range
// into a partial inverted index, and the partials are merged in shard order
// so every block's member lists stay in ascending ID order. The result is
// identical to kb.Block(c) — same keys, same members, same order — for any
// shard count. shards <= 0 means runtime.GOMAXPROCS(0); one shard runs
// inline.
//
// mapreduce.ParallelTokenBlocking builds the token-blocking collection as
// an explicit MapReduce job with the same equals-sequential contract; this
// function is the in-process fast path core.Pipeline's blocking phase uses,
// and the one that generalizes over every KeyedBlocker.
func BuildSharded(ctx context.Context, c *entity.Collection, kb KeyedBlocker, shards int) (*Blocks, error) {
	bs, _, err := BuildShardedKeys(ctx, c, kb, shards, false)
	return bs, err
}

// BuildShardedKeys is BuildSharded that, when keep is set, also returns
// every description's distinct keys, sorted ascending and indexed by ID —
// the lists the build indexed the description under. For token blocking
// they are the descriptions' token rows, which core.Pipeline hands to the
// batch matcher instead of tokenizing every record a second time.
func BuildShardedKeys(ctx context.Context, c *entity.Collection, kb KeyedBlocker, shards int, keep bool) (*Blocks, [][]string, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := c.Len()
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	shards = max(1, min(shards, n))
	keys := kb.Keyer(c)
	descs := c.All()
	var rows [][]string
	if keep {
		rows = make([][]string, n)
	}
	partials := make([]map[string]*Block, shards)
	build := func(s int) {
		lo, hi := s*n/shards, (s+1)*n/shards
		bb := newBuilder(c.Kind())
		for i := lo; i < hi; i++ {
			if (i-lo)%cancelCheckStride == 0 && ctx.Err() != nil {
				return
			}
			distinct := bb.addDescription(descs[i], keys(descs[i]))
			if keep {
				rows[i] = distinct
			}
		}
		partials[s] = bb.m
	}
	if shards == 1 {
		build(0)
	} else {
		var wg sync.WaitGroup
		for s := range shards {
			wg.Add(1)
			go func() {
				defer wg.Done()
				build(s)
			}()
		}
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	// Merge in ascending shard order: shard s holds IDs strictly below
	// shard s+1, so appending member lists shard-by-shard reproduces the
	// ID-ordered membership of the sequential build. The first shard's
	// partial index seeds the merge as-is.
	merged := partials[0]
	for _, pm := range partials[1:] {
		for k, b := range pm {
			mb, ok := merged[k]
			if !ok {
				merged[k] = b
				continue
			}
			mb.S0 = append(mb.S0, b.S0...)
			mb.S1 = append(mb.S1, b.S1...)
		}
	}
	// Finalize through the sequential builder so ordering and filtering
	// policy live in exactly one place.
	bs := (&builder{kind: c.Kind(), m: merged}).blocks()
	if r, ok := kb.(BlockRefiner); ok {
		bs = r.RefineBlocks(bs)
	}
	return bs, rows, nil
}
