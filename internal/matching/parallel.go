package matching

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"entityres/internal/blocking"
	"entityres/internal/entity"
)

// recordChunk caps the number of consecutive records a worker claims at a
// time, both when binding rows and when walking neighbourhoods.
const recordChunk = 64

// pairChunk is the number of pairs of an explicit list a worker claims at a
// time: large enough to amortize the claim, small enough to keep workers
// balanced. A list shorter than one chunk runs inline.
const pairChunk = 256

// ResolveBlocksParallel executes the matcher over every distinct comparison
// of bs with a pool of workers (<= 0 means GOMAXPROCS; one worker runs
// inline, without goroutines). The match set and the comparison count do
// not depend on the worker count or the schedule: they equal a Match loop
// over blocking.NewCompareIterator(bs). The matcher's similarity must be
// safe for concurrent use (every similarity in this package is).
//
// Redundant comparisons are removed node-centrically, over the entity
// index of bs (blocking.IndexBlocks), with no pair set and no producer
// goroutine. Workers claim chunks of records; for a record x a worker walks
// x's blocks in order and compares each distinct partner y once, marking y
// in its own stamp array: y > x in a dirty collection, every S1 partner of
// an S0 record in a clean-clean one. Token measures read dense per-record
// rows the workers tokenize first (see bindIndex); ResolveBlocksRows takes
// rows tokenized elsewhere instead. Block collections outside the index's
// domain stream through a CompareIterator into ResolvePairs.
//
// ctx is checked before every chunk; when it is cancelled the partial
// result is returned together with ctx.Err().
func ResolveBlocksParallel(ctx context.Context, c *entity.Collection, bs *blocking.Blocks, m *Matcher, workers int) (Result, error) {
	return ResolveBlocksRows(ctx, c, bs, m, workers, nil)
}

// ResolveBlocksRows is ResolveBlocksParallel over token rows built by the
// caller: rows[id] is record id's distinct tokens, sorted ascending, as
// m.SharesRows accepts them. The batch pipeline passes token blocking's key
// lists, so each record is tokenized once per run. nil rows, or fewer rows
// than the entity index has records, mean bindIndex tokenizes them.
func ResolveBlocksRows(ctx context.Context, c *entity.Collection, bs *blocking.Blocks, m *Matcher, workers int, rows [][]string) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return Result{Matches: entity.NewMatches()}, err
	}
	ix, ok := blocking.IndexBlocks(bs)
	if !ok {
		var pairs []entity.Pair
		bs.EachDistinctComparison(func(p entity.Pair) bool {
			pairs = append(pairs, p)
			return true
		})
		return ResolvePairs(ctx, c, pairs, m, workers)
	}
	n := ix.Records()
	workers = poolSize(workers, n)
	chunk := max(1, min(recordChunk, n/(4*workers)))
	match, err := m.bindIndex(ctx, c, ix, workers, chunk, rows)
	if err != nil {
		return Result{Matches: entity.NewMatches()}, err
	}
	shares := make([]share, workers)
	err = forChunks(ctx, n, workers, chunk, func(w, lo, hi int) {
		s := &shares[w]
		if s.stamp == nil {
			s.stamp = make([]int32, n)
		}
		for x := lo; x < hi; x++ {
			s.walk(ix, x, match)
		}
	})
	return merge(shares), err
}

// ResolvePairs executes the matcher over an explicit pair list, once per
// listed pair, with a pool of workers claiming chunks of the list (<= 0
// means GOMAXPROCS; a list of at most one chunk runs inline). It is
// ResolvePairsRows without kept rows: token measures tokenize each member
// of the pairs once per call. When ctx is cancelled the partial result is
// returned together with ctx.Err().
func ResolvePairs(ctx context.Context, c *entity.Collection, pairs []entity.Pair, m *Matcher, workers int) (Result, error) {
	return ResolvePairsRows(ctx, c, pairs, m, workers, nil)
}

// ResolvePairsRows is ResolvePairs over token rows the caller keeps across
// calls, dense and indexed by handle: rows[id] must be record id's token
// row under m.RowProfiler (see TokenRow) for every member of pairs. It is
// the entry point of the streaming resolver, whose slot-indexed row store
// tokenizes a record once while it lives, or reads token blocking's key
// lists when m.SharesRows accepts the blocker's profiler. nil rows bind
// rows for the call (see bind); similarities without a row form ignore
// rows.
func ResolvePairsRows(ctx context.Context, c *entity.Collection, pairs []entity.Pair, m *Matcher, workers int, rows [][]string) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return Result{Matches: entity.NewMatches()}, err
	}
	workers = poolSize(workers, (len(pairs)+pairChunk-1)/pairChunk)
	match := m.bind(c, pairs, rows)
	shares := make([]share, workers)
	err := forChunks(ctx, len(pairs), workers, pairChunk, func(w, lo, hi int) {
		s := &shares[w]
		for _, p := range pairs[lo:hi] {
			s.comparisons++
			if match(p.A, p.B) {
				s.hits = append(s.hits, p)
			}
		}
	})
	return merge(shares), err
}

// poolSize resolves a worker count (<= 0 means GOMAXPROCS) against the
// number of work units: never more workers than units, never fewer than
// one.
func poolSize(workers, units int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, units))
}

// share is one worker's part of a resolve.
type share struct {
	// stamp[y] is x+1 once the walk of record x has compared y.
	stamp       []int32
	comparisons int64
	hits        []entity.Pair
}

// walk compares record x with each of its distinct partners once.
func (s *share) walk(ix *blocking.EntityIndex, x int, match func(a, b entity.ID) bool) {
	if ix.Clean && ix.Side[x] != 1 {
		return
	}
	mark := int32(x + 1)
	for _, b := range ix.BlocksOf(x) {
		for _, y := range ix.Partners(x, b) {
			if (!ix.Clean && y <= x) || s.stamp[y] == mark {
				continue
			}
			s.stamp[y] = mark
			s.comparisons++
			// Decide in canonical order, as the CompareIterator oracle does.
			p := entity.NewPair(x, y)
			if match(p.A, p.B) {
				s.hits = append(s.hits, p)
			}
		}
	}
}

// merge folds the workers' shares into one result.
func merge(shares []share) Result {
	res := Result{Matches: entity.NewMatches()}
	for _, s := range shares {
		res.Comparisons += s.comparisons
		for _, p := range s.hits {
			res.Matches.Add(p.A, p.B)
		}
	}
	return res
}

// forChunks runs fn over the items [0, n) in chunks of at most chunk items,
// workers claiming chunks until none is left or ctx is done; fn receives
// the claiming worker's index. One worker runs inline on the calling
// goroutine. A claimed chunk always runs to its end, and forChunks returns
// only after every worker has stopped. It reports ctx.Err() when a chunk
// was left unclaimed.
func forChunks(ctx context.Context, n, workers, chunk int, fn func(w, lo, hi int)) error {
	var next atomic.Int64
	claim := func(w int) {
		for ctx.Err() == nil {
			lo := int(next.Add(int64(chunk))) - chunk
			if lo >= n {
				return
			}
			fn(w, lo, min(lo+chunk, n))
		}
	}
	if workers == 1 {
		claim(0)
	} else {
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				claim(w)
			}()
		}
		wg.Wait()
	}
	if next.Load() < int64(n) {
		return ctx.Err()
	}
	return nil
}
