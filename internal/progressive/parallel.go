package progressive

import (
	"context"
	"runtime"

	"entityres/internal/entity"
	"entityres/internal/evaluation"
	"entityres/internal/matching"
)

// waveSize is the number of comparisons pulled from the scheduler per
// synchronization wave of RunParallel. It is a fixed constant — not derived
// from the worker count — so the executed schedule, and therefore the
// result, is identical for any degree of parallelism.
const waveSize = 64

// RunParallel is the budgeted progressive runner: it executes comparisons
// from the scheduler with the matcher until the budget is exhausted or the
// schedule ends, fanning matcher execution out to a worker pool. It
// proceeds in waves: up to waveSize comparisons are pulled from the
// scheduler, matched (concurrently when workers > 1), and the outcomes fed
// back to the scheduler in pull order before the next wave is scheduled.
// The run stops exactly at the comparison budget. The ground truth only
// annotates the recall curve — neither the scheduler nor the matcher sees
// it.
//
// Adaptive schedulers (PSNM lookahead, benefit/cost) observe feedback
// wave-synchronously — outcomes within one wave cannot reorder that same
// wave — which is the standard trade a parallel progressive executor makes;
// because waveSize is fixed, the result does not depend on the worker
// count. Feedback-insensitive schedulers (static, random) execute exactly
// their pull order.
//
// When ctx is cancelled between waves the partial result is returned with
// ctx.Err(). workers <= 0 means GOMAXPROCS.
func RunParallel(ctx context.Context, c *entity.Collection, sched Scheduler, m *matching.Matcher, gt *entity.Matches, budget int64, workers int) (RunResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > waveSize {
		workers = waveSize
	}
	res := RunResult{Matches: entity.NewMatches()}
	foundGT := 0
	record := func() {
		recall := 0.0
		if gt.Len() > 0 {
			recall = float64(foundGT) / float64(gt.Len())
		}
		res.Curve = append(res.Curve, evaluation.CurvePoint{
			Comparisons: res.Comparisons,
			Recall:      recall,
		})
	}
	// One persistent worker pool for the whole run: waves are small (64
	// comparisons) and a long budget executes many of them, so spawning
	// goroutines per wave would put scheduler churn on the hot path. The
	// buffers are fixed arrays shared with the workers; the jobs send
	// happens after the pair is written and the results receive happens
	// before the decision is read, so each slot is properly handed off.
	var waveBuf [waveSize]entity.Pair
	var matched [waveSize]bool
	var jobs chan int
	var done chan struct{}
	if workers > 1 {
		jobs = make(chan int, waveSize)
		done = make(chan struct{}, waveSize)
		defer close(jobs)
		for w := 0; w < workers; w++ {
			go func() {
				for i := range jobs {
					p := waveBuf[i]
					matched[i], _ = m.Match(c.Get(p.A), c.Get(p.B))
					done <- struct{}{}
				}
			}()
		}
	}
	for res.Comparisons < budget {
		if err := ctx.Err(); err != nil {
			record()
			return res, err
		}
		// Pull the next wave, clipped to the remaining budget.
		want := budget - res.Comparisons
		if want > waveSize {
			want = waveSize
		}
		n := 0
		for int64(n) < want {
			p, ok := sched.Next()
			if !ok {
				break
			}
			waveBuf[n] = p
			n++
		}
		if n == 0 {
			break
		}
		if workers > 1 {
			for i := 0; i < n; i++ {
				jobs <- i
			}
			for i := 0; i < n; i++ {
				<-done
			}
		} else {
			for i := 0; i < n; i++ {
				matched[i], _ = m.Match(c.Get(waveBuf[i].A), c.Get(waveBuf[i].B))
			}
		}
		// Sequential epilogue in pull order: count, feed back, collect.
		for i := 0; i < n; i++ {
			p := waveBuf[i]
			res.Comparisons++
			sched.Feedback(p, matched[i])
			if matched[i] {
				res.Matches.Add(p.A, p.B)
				if gt.Contains(p.A, p.B) {
					foundGT++
					record()
				}
			}
		}
	}
	record()
	return res, nil
}
