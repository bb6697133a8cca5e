// Package core implements the paper's central artifact: the ER framework
// of Fig. 1. A Pipeline wires the framework's phases — Blocking, block
// cleaning and Meta-blocking (the planning of comparisons), Scheduling,
// Matching, and the optional Update/iteration feeding results back — with
// pluggable implementations from the substrate packages, and runs them in
// one of the execution modes the tutorial organizes: batch, merging-based
// iterative (Swoosh), iterative blocking, relationship-based collective,
// budget-bounded progressive, and streaming (incremental resolution of
// arriving descriptions, package incremental).
//
// RunWorkers is the one phase sequencer, with worker pools of a chosen
// size: blocking shards the entity collection across workers into
// per-shard inverted indexes merged in ID order (blocking.BuildSharded);
// meta-blocking weighs and prunes the blocking graph record by record,
// the workers claiming ranges of records
// (metablocking.RestructureParallel); matching walks the record
// neighbourhoods of the same kind of entity index, comparing each distinct
// pair once, so no pair list or pair set is ever built
// (matching.ResolveBlocksRows); progressive runs execute
// wave-synchronously under an exact comparison budget
// (progressive.RunParallel). Run is RunWorkers at one worker, where each of
// those calls runs its sequential building block.
//
// A batch run tokenizes each record once. Token blocking keys a record by
// its profiler's token list, sorted and compacted, and when the matcher's
// token measure uses an equal profiler those lists are the matcher's rows
// (blocking.BuildShardedKeys into matching.ResolveBlocksRows). Cleaning and
// meta-blocking never change a record's tokens, so the rows hold through
// every stage. Every other blocker or measure tokenizes for the matcher
// anew, as matching.ResolveBlocksParallel does.
//
// The result is deterministic in the worker count: for a fixed
// configuration and collection, every worker count produces the same match
// set, comparison count and block collection.
package core

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"entityres/internal/blocking"
	"entityres/internal/blockproc"
	"entityres/internal/entity"
	"entityres/internal/evaluation"
	"entityres/internal/incremental"
	"entityres/internal/iterative"
	"entityres/internal/iterblock"
	"entityres/internal/matching"
	"entityres/internal/metablocking"
	"entityres/internal/progressive"
	"entityres/internal/sharded"
	"entityres/internal/transport"
)

// Mode selects the execution strategy of the matching/update phases.
type Mode int

const (
	// Batch resolves every blocked comparison once, in block order.
	Batch Mode = iota
	// MergingIterative runs R-Swoosh over the collection: matches merge
	// and merged profiles re-enter resolution (blocking is still applied
	// first to report stats, but resolution is exhaustive over profiles,
	// per the Swoosh model).
	MergingIterative
	// IterativeBlocks runs iterative blocking: block-at-a-time resolution
	// with merge propagation across blocks until fixpoint.
	IterativeBlocks
	// Collective runs relationship-based iterative resolution over the
	// blocked candidates.
	Collective
	// Progressive resolves blocked candidates under a comparison budget
	// using a pluggable scheduler.
	Progressive
	// Streaming replays the collection through the incremental resolver
	// (package incremental): every description is inserted one at a time
	// and resolved against only the blocks its keys touch. On a static
	// collection the result is identical to Batch — same matches, same
	// comparison count — which is exactly the differential contract that
	// lets the same configuration serve live insert/update/delete traffic
	// through core.Pipeline.Streaming.
	Streaming
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Batch:
		return "batch"
	case MergingIterative:
		return "merging-iterative"
	case IterativeBlocks:
		return "iterative-blocking"
	case Collective:
		return "collective"
	case Progressive:
		return "progressive"
	case Streaming:
		return "streaming"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// SchedulerFactory builds the progressive scheduler once the blocking
// collection is known.
type SchedulerFactory func(c *entity.Collection, bs *blocking.Blocks) progressive.Scheduler

// Pipeline is the configurable ER framework.
type Pipeline struct {
	// Blocker is the blocking phase (required).
	Blocker blocking.Blocker
	// Processors clean the blocking collection (purging, filtering, ...)
	// in order.
	Processors []blockproc.Processor
	// Meta optionally restructures the collection through the weighted
	// blocking graph.
	Meta *metablocking.MetaBlocker
	// Matcher is the matching phase (required for every mode except
	// Collective, which carries its own similarity).
	Matcher *matching.Matcher
	// Mode selects the execution strategy (default Batch).
	Mode Mode
	// Scheduler builds the progressive schedule (Progressive mode;
	// defaults to the static block order).
	Scheduler SchedulerFactory
	// Budget caps comparisons in Progressive mode (0 = unlimited).
	Budget int64
	// CollectiveConfig configures Collective mode (nil = defaults with
	// the Matcher's similarity and threshold).
	CollectiveConfig *iterative.Collective
	// GroundTruth, when provided, annotates the progressive recall curve;
	// it never influences resolution.
	GroundTruth *entity.Matches
	// StreamDir, in Streaming mode, makes the resolver durable: every
	// operation is journaled to a write-ahead log in this directory and
	// periodically compacted into snapshots, and an existing directory is
	// crash-recovered (snapshot restore plus tail replay) before the
	// collection streams in — see incremental.OpenResolver. Empty means
	// in-memory streaming. Replaying a collection into a directory that
	// already holds its descriptions fails on the duplicate URIs; persistent
	// pipelines are for fresh directories or resumed streams whose
	// collections carry only the new arrivals.
	StreamDir string
	// StreamDurable tunes the StreamDir journal (segment size, snapshot
	// cadence, fsync policy).
	StreamDurable incremental.DurableOptions
	// StreamShards, in Streaming mode, replays the collection through the
	// sharded streaming resolver (package sharded) with this many key-hash
	// shards instead of the single-node resolver: each shard owns a slice
	// of the blocking-key space and the coordinator merges their match
	// edges, with results bit-exact for every shard count. 0 or 1 keeps the
	// single-node resolver. With StreamDir set, each shard journals to its
	// own WAL directory shard-%03d under StreamDir (group-commit fsync
	// batching).
	StreamShards int
}

// PhaseStat records one framework phase execution.
type PhaseStat struct {
	Name     string
	Duration time.Duration
}

// Result is the outcome of a pipeline run.
type Result struct {
	// Matches is the pairwise match output.
	Matches *entity.Matches
	// Comparisons counts matcher invocations.
	Comparisons int64
	// Blocks is the final blocking collection that fed matching.
	Blocks *blocking.Blocks
	// Curve is the progressive recall curve (Progressive mode with
	// GroundTruth set).
	Curve evaluation.Curve
	// Phases records per-phase wall time in execution order.
	Phases []PhaseStat
}

// Clusters returns the resolved entities as ID clusters (connected
// components of the match output).
func (r *Result) Clusters() [][]entity.ID { return r.Matches.Clusters() }

// Validate checks that the configuration is runnable.
func (p *Pipeline) Validate() error {
	if p.Blocker == nil {
		return fmt.Errorf("core: pipeline requires a Blocker")
	}
	if p.Matcher == nil && p.Mode != Collective {
		return fmt.Errorf("core: pipeline requires a Matcher in %s mode", p.Mode)
	}
	if p.Mode == Collective && p.CollectiveConfig == nil && p.Matcher == nil {
		return fmt.Errorf("core: collective mode requires CollectiveConfig or Matcher")
	}
	if p.StreamDir != "" && p.Mode != Streaming {
		return fmt.Errorf("core: StreamDir (durable streaming) requires %s mode, got %s", Streaming, p.Mode)
	}
	if p.StreamDurable != (incremental.DurableOptions{}) && p.StreamDir == "" {
		return fmt.Errorf("core: StreamDurable tunes the StreamDir journal and requires StreamDir to be set")
	}
	if p.StreamShards < 0 {
		return fmt.Errorf("core: StreamShards must be >= 0, got %d", p.StreamShards)
	}
	if p.StreamShards > 1 && p.Mode != Streaming {
		return fmt.Errorf("core: StreamShards (sharded streaming) requires %s mode, got %s", Streaming, p.Mode)
	}
	if p.Mode == Streaming {
		if _, ok := p.Blocker.(blocking.StreamableBlocker); !ok {
			return fmt.Errorf("core: streaming mode requires a collection-independent blocker (blocking.StreamableBlocker), got %q", p.Blocker.Name())
		}
		if len(p.Processors) > 0 {
			return fmt.Errorf("core: streaming mode does not support block cleaning (collection-global)")
		}
		if p.Meta != nil {
			// Meta-blocking streams for the stream-safe subset — WEP/WNP
			// pruning of CBS/ECBS/JS weights, maintained incrementally by
			// the resolver; the rest is rejected with a specific reason.
			if err := p.Meta.ValidateStreaming(); err != nil {
				return fmt.Errorf("core: streaming mode: %w", err)
			}
		}
	}
	return nil
}

// streamResolver is what the streaming replay drives: the single-node
// resolver (package incremental) and the sharded deployment's coordinator
// (package transport) both provide it.
type streamResolver interface {
	Insert(ctx context.Context, d *entity.Description) (entity.ID, error)
	Flush(ctx context.Context) error
	RestructuredBlocks() (*blocking.Blocks, error)
	Blocks() *blocking.Blocks
	Matches() (*entity.Matches, error)
	Stats() (incremental.Stats, error)
	Close() error
}

// openStream builds the streaming resolver of a Streaming-mode pipeline
// over a collection of the given kind: a coordinator driving StreamShards
// shard servers hosted in this process when StreamShards > 1, the
// single-node resolver otherwise — durable (crash-recovered from StreamDir)
// when the pipeline sets one, in-memory otherwise.
func (p *Pipeline) openStream(ctx context.Context, kind entity.Kind, workers int) (streamResolver, error) {
	sb, ok := p.Blocker.(blocking.StreamableBlocker)
	if !ok {
		return nil, fmt.Errorf("core: streaming mode requires a blocking.StreamableBlocker")
	}
	if p.StreamShards > 1 {
		cfg := sharded.Config{
			Kind:    kind,
			Blocker: sb,
			Matcher: p.Matcher,
			Workers: workers,
			Meta:    p.Meta,
			Shards:  p.StreamShards,
			Durable: p.StreamDurable,
		}
		return transport.OpenLocal(ctx, p.StreamDir, cfg, transport.ClientOptions{})
	}
	cfg := incremental.Config{
		Kind:    kind,
		Blocker: sb,
		Matcher: p.Matcher,
		Workers: workers,
		Meta:    p.Meta,
		Durable: p.StreamDurable,
	}
	if p.StreamDir != "" {
		return incremental.OpenResolver(p.StreamDir, cfg)
	}
	return incremental.New(cfg)
}

// replayStream replays c through a fresh streaming resolver built from the
// pipeline configuration and shapes the outcome as a batch result (matches,
// comparison count, block collection). The results are bit-exact whether
// the resolver is single-node or sharded.
func (p *Pipeline) replayStream(ctx context.Context, res *Result, c *entity.Collection, workers int) error {
	r, err := p.openStream(ctx, c.Kind(), workers)
	if err != nil {
		return err
	}
	// Close releases a durable resolver's journal once the results are
	// extracted (Close is idempotent and a cheap no-op for in-memory runs);
	// the deferred call covers the error paths.
	defer r.Close()
	for _, d := range c.All() {
		if _, err := r.Insert(ctx, d); err != nil {
			return err
		}
	}
	if p.Meta != nil {
		// Settle the deferred weighting/pruning under the caller's context,
		// and report the pruned pair blocks — the collection batch
		// meta-blocking would hand its matcher.
		if err := r.Flush(ctx); err != nil {
			return err
		}
		blocks, err := r.RestructuredBlocks()
		if err != nil {
			return err
		}
		res.Blocks = blocks
	} else {
		res.Blocks = r.Blocks()
	}
	matches, err := r.Matches()
	if err != nil {
		return err
	}
	res.Matches = matches
	st, err := r.Stats()
	if err != nil {
		return err
	}
	res.Comparisons = st.Comparisons
	return r.Close()
}

// sharesRows reports whether the batch matcher can take blocking's key
// lists as its rows: a Batch run over token blocking, whose keyer is
// exactly Profiler.Tokens, with a matcher whose rows are that profiler's
// token lists (matching.Matcher.SharesRows).
func (p *Pipeline) sharesRows() bool {
	tb, ok := p.Blocker.(*blocking.TokenBlocking)
	return ok && p.Mode == Batch && p.Matcher.SharesRows(tb.Profiler)
}

// Run executes the pipeline over the collection: RunWorkers at one worker
// under a background context, where every phase runs its sequential
// building block.
func (p *Pipeline) Run(c *entity.Collection) (*Result, error) {
	return p.RunWorkers(context.Background(), c, 1)
}

// RunWorkers executes the pipeline over the collection with every phase's
// worker pool sized to workers; <= 0 means runtime.GOMAXPROCS(0). The run
// stops between phases — and, inside the streaming phases, between pair
// chunks — when ctx is cancelled, returning ctx.Err() wrapped with the
// phase it stopped in. A nil ctx means context.Background().
func (p *Pipeline) RunWorkers(ctx context.Context, c *entity.Collection, workers int) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	res := &Result{}
	// phase times fn and attributes its error, so cancellations and phase
	// failures surface as "core: <phase>: <cause>" wherever they occur.
	phase := func(name string, fn func() error) error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: %s: %w", name, err)
		}
		t0 := time.Now()
		err := fn()
		res.Phases = append(res.Phases, PhaseStat{Name: name, Duration: time.Since(t0)})
		if err != nil {
			return fmt.Errorf("core: %s: %w", name, err)
		}
		return nil
	}

	// Streaming mode owns its whole phase sequence: the streaming resolver
	// blocks, schedules and matches each arriving description in one pass,
	// so the batch blocking/planning phases below never run.
	if p.Mode == Streaming {
		if err := phase("streaming", func() error {
			return p.replayStream(ctx, res, c, workers)
		}); err != nil {
			return nil, err
		}
		return res, nil
	}

	// Blocking phase: sharded over the workers when the blocker exposes a
	// key function, keeping the key lists as the matcher's rows when
	// sharesRows holds (rows is nil otherwise).
	var bs *blocking.Blocks
	var rows [][]string
	if err := phase("blocking", func() (err error) {
		if kb, ok := p.Blocker.(blocking.KeyedBlocker); ok {
			bs, rows, err = blocking.BuildShardedKeys(ctx, c, kb, workers, p.sharesRows())
		} else {
			bs, err = p.Blocker.Block(c)
		}
		return err
	}); err != nil {
		return nil, err
	}

	// Planning phase: block cleaning (cheap, sequential) + meta-blocking
	// (node-centric, the workers claiming ranges of records).
	if len(p.Processors) > 0 {
		if err := phase("block-cleaning", func() error {
			bs = blockproc.Chain(p.Processors).Process(bs)
			return nil
		}); err != nil {
			return nil, err
		}
	}
	if p.Meta != nil {
		if err := phase("meta-blocking", func() error {
			bs = p.Meta.RestructureParallel(c, bs, workers)
			return nil
		}); err != nil {
			return nil, err
		}
	}
	res.Blocks = bs

	// Scheduling + matching + update phases, by mode. Batch and
	// Progressive stream through worker pools; the inherently sequential
	// iterative modes (Swoosh-style merging mutates the profile set it is
	// iterating, collective resolution reorders on every merge) run their
	// sequential algorithms at any worker count.
	err := phase(p.Mode.String(), func() error {
		switch p.Mode {
		case Batch:
			out, err := matching.ResolveBlocksRows(ctx, c, bs, p.Matcher, workers, rows)
			res.Matches, res.Comparisons = out.Matches, out.Comparisons
			return err
		case MergingIterative:
			out := iterative.RSwoosh(c, p.Matcher)
			res.Matches, res.Comparisons = out.Matches, out.Comparisons
		case IterativeBlocks:
			out := iterblock.Resolve(c, bs, p.Matcher)
			res.Matches, res.Comparisons = out.Matches, out.Comparisons
		case Collective:
			coll := p.CollectiveConfig
			if coll == nil {
				coll = &iterative.Collective{Base: p.Matcher.Sim, Threshold: p.Matcher.Threshold}
			}
			out := coll.Resolve(c, bs.DistinctPairs().Pairs())
			res.Matches, res.Comparisons = out.Matches, out.Comparisons
		case Progressive:
			var sched progressive.Scheduler
			if p.Scheduler != nil {
				sched = p.Scheduler(c, bs)
			} else {
				sched = progressive.NewStaticOrder(bs)
			}
			budget := p.Budget
			if budget <= 0 {
				budget = 1 << 62
			}
			gt := p.GroundTruth
			if gt == nil {
				gt = entity.NewMatches()
			}
			out, err := progressive.RunParallel(ctx, c, sched, p.Matcher, gt, budget, workers)
			res.Matches, res.Comparisons, res.Curve = out.Matches, out.Comparisons, out.Curve
			return err
		default:
			return fmt.Errorf("unknown mode %v", p.Mode)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
