package matching

import (
	"context"
	"iter"
	"runtime"
	"sync"
	"sync/atomic"

	"entityres/internal/blocking"
	"entityres/internal/entity"
)

// compareChunk is how many pairs travel per channel send: large enough to
// amortize channel synchronization, small enough to keep workers balanced
// on skewed block-size distributions.
const compareChunk = 256

// ResolveBlocksParallel executes the matcher over every distinct comparison
// of bs using a pool of concurrent workers fed by a streaming
// CompareIterator — pairs are never materialized as one slice. The match
// output is identical to ResolveBlocks for any worker count, because a
// thresholded match decision depends only on the pair, never on execution
// order. The matcher's similarity must be safe for concurrent use (every
// similarity in this package is).
//
// When ctx is cancelled the stream stops early and the partial result is
// returned together with ctx.Err(). workers <= 0 means GOMAXPROCS.
func ResolveBlocksParallel(ctx context.Context, c *entity.Collection, bs *blocking.Blocks, m *Matcher, workers int) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if err := ctx.Err(); err != nil {
		return Result{Matches: entity.NewMatches()}, err
	}
	match := m.bind(c, blockMembers(bs))
	if workers == 1 {
		return resolveIteratorSequential(ctx, bs, match)
	}

	pairsCh := make(chan []entity.Pair, workers*2)
	matchedCh := make(chan []entity.Pair, workers*2)
	var comparisons atomic.Int64

	// Producer: pull from the streaming iterator, ship fixed-size chunks.
	go func() {
		defer close(pairsCh)
		it := blocking.NewCompareIterator(bs)
		chunk := make([]entity.Pair, 0, compareChunk)
		flush := func() bool {
			if len(chunk) == 0 {
				return true
			}
			// Check ctx before the select: when both cases are ready the
			// select would pick at random, letting a cancelled producer
			// keep streaming.
			if ctx.Err() != nil {
				return false
			}
			select {
			case pairsCh <- chunk:
				comparisons.Add(int64(len(chunk)))
				chunk = make([]entity.Pair, 0, compareChunk)
				return true
			case <-ctx.Done():
				return false
			}
		}
		for {
			p, ok := it.Next()
			if !ok {
				break
			}
			chunk = append(chunk, p)
			if len(chunk) == compareChunk && !flush() {
				return
			}
		}
		flush()
	}()

	// Workers: match each chunk, forward the positives.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for chunk := range pairsCh {
				var hits []entity.Pair
				for _, p := range chunk {
					if match(p.A, p.B) {
						hits = append(hits, p)
					}
				}
				if len(hits) > 0 {
					matchedCh <- hits
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(matchedCh)
	}()

	// Collector (this goroutine): fold positives into the match set.
	res := Result{Matches: entity.NewMatches()}
	for hits := range matchedCh {
		for _, p := range hits {
			res.Matches.Add(p.A, p.B)
		}
	}
	res.Comparisons = comparisons.Load()
	return res, ctx.Err()
}

// resolveIteratorSequential is the workers==1 path: same streaming iterator
// and cancellation semantics, no goroutines.
func resolveIteratorSequential(ctx context.Context, bs *blocking.Blocks, match func(a, b entity.ID) bool) (Result, error) {
	res := Result{Matches: entity.NewMatches()}
	it := blocking.NewCompareIterator(bs)
	for {
		if res.Comparisons%compareChunk == 0 && ctx.Err() != nil {
			return res, ctx.Err()
		}
		p, ok := it.Next()
		if !ok {
			return res, nil
		}
		res.Comparisons++
		if match(p.A, p.B) {
			res.Matches.Add(p.A, p.B)
		}
	}
}

// blockMembers yields the members of every block of bs that suggests at
// least one comparison: the records a resolve over bs can touch.
func blockMembers(bs *blocking.Blocks) iter.Seq[entity.ID] {
	return func(yield func(entity.ID) bool) {
		for _, b := range bs.All() {
			if b.Comparisons(bs.Kind()) == 0 {
				continue
			}
			for _, side := range [2][]entity.ID{b.S0, b.S1} {
				for _, id := range side {
					if !yield(id) {
						return
					}
				}
			}
		}
	}
}
