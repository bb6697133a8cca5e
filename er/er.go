// Package er is the public API of the entity-resolution framework: a
// faithful, production-oriented implementation of the ER framework for the
// Web of data presented in "Web-scale Blocking, Iterative and Progressive
// Entity Resolution" (Stefanidis, Christophides, Efthymiou; ICDE 2017).
//
// The package re-exports the supported surface of the internal subsystem
// packages as stable aliases, organized by framework phase:
//
//   - data model: Description, Collection, Pair, Matches (entity model of
//     Web-of-data descriptions);
//   - blocking: TokenBlocking, StandardBlocking, AttributeClustering,
//     SortedNeighborhood, QGramsBlocking, SuffixArrayBlocking, Canopy,
//     PrefixInfixSuffix, SimJoinBlocking, FrequentItemsetBlocking,
//     MultiBlock;
//   - block cleaning: AutoPurge, MaxComparisonsPurge, BlockFiltering;
//   - meta-blocking: MetaBlocker with CBS/ECBS/JS/EJS/ARCS weighting and
//     WEP/CEP/WNP/CNP pruning;
//   - matching: TokenJaccard, TokenContainment, TFIDFCosine, BestValueJW,
//     Weighted, Matcher;
//   - iterative resolution: RSwoosh, Collective, IterativeBlocking;
//   - progressive resolution: PSNM, SlidingWindow, Hierarchy, BenefitCost
//     schedulers and the budgeted runner;
//   - streaming resolution: StreamingResolver maintaining blocks, matches
//     and clusters under live insert/update/delete traffic, with an op-log
//     exchange format (ReadStreamOps/WriteStreamOps), optional live
//     meta-blocking (StreamingConfig.Meta: WEP/WNP pruning of CBS/ECBS/JS
//     weights over the incrementally-maintained WeightedBlockingGraph),
//     and a durable storage layer (PersistentResolver: every operation
//     journaled to fsync'd CRC-framed WAL segments, compacted into
//     snapshots, crash-recovered by snapshot restore plus bounded tail
//     replay), and a sharded deployment form (ShardedResolver: the
//     blocking-key space hash-partitioned across N shard resolvers with
//     coordinator-merged reads, bit-exact with the single-node resolver
//     for every shard count, per-shard group-committed WALs, and
//     crash-tested shard stop/rejoin bootstrap);
//   - the Pipeline tying the phases together (Fig. 1 of the paper);
//   - synthetic data generation, N-Triples I/O and evaluation metrics.
//
// The quickstart in examples/quickstart shows an end-to-end run in ~40
// lines.
package er

import (
	"context"
	"io"

	"entityres/internal/blocking"
	"entityres/internal/blockproc"
	"entityres/internal/core"
	"entityres/internal/datagen"
	"entityres/internal/entity"
	"entityres/internal/evaluation"
	"entityres/internal/freqmine"
	"entityres/internal/graph"
	"entityres/internal/incremental"
	"entityres/internal/iterative"
	"entityres/internal/iterblock"
	"entityres/internal/matching"
	"entityres/internal/metablocking"
	"entityres/internal/multiblock"
	"entityres/internal/progressive"
	"entityres/internal/rdf"
	"entityres/internal/sharded"
	"entityres/internal/simjoin"
	"entityres/internal/tabular"
	"entityres/internal/token"
)

// Data model.
type (
	// Description is one entity description: URI plus schema-free
	// attribute-value pairs.
	Description = entity.Description
	// Attribute is one attribute-value pair.
	Attribute = entity.Attribute
	// Collection is an ordered set of descriptions (dirty or clean-clean).
	Collection = entity.Collection
	// Kind distinguishes dirty from clean-clean collections.
	Kind = entity.Kind
	// ID is a dense description identifier within a collection.
	ID = entity.ID
	// Pair is an unordered description pair in canonical form.
	Pair = entity.Pair
	// Matches is a set of matching pairs (ground truth or output).
	Matches = entity.Matches
)

// Collection kinds.
const (
	Dirty      = entity.Dirty
	CleanClean = entity.CleanClean
)

// NewDescription returns a description with the given URI.
func NewDescription(uri string) *Description { return entity.NewDescription(uri) }

// NewCollection returns an empty collection of the given kind.
func NewCollection(kind Kind) *Collection { return entity.NewCollection(kind) }

// NewMatches returns an empty match set.
func NewMatches() *Matches { return entity.NewMatches() }

// NewPair returns the canonical pair {a, b}.
func NewPair(a, b ID) Pair { return entity.NewPair(a, b) }

// Tokenization.
type (
	// Profiler converts descriptions to tokens (see Scheme).
	Profiler = token.Profiler
	// Stopwords is a token exclusion set.
	Stopwords = token.Stopwords
)

// Tokenization schemes.
const (
	SchemaAgnostic = token.SchemaAgnostic
	SchemaAware    = token.SchemaAware
)

// DefaultProfiler returns the schema-agnostic profiler with default
// stopwords.
func DefaultProfiler() *Profiler { return token.DefaultProfiler() }

// Blocking.
type (
	// Blocker builds a block collection from an entity collection.
	Blocker = blocking.Blocker
	// Block is one blocking unit.
	Block = blocking.Block
	// Blocks is a blocking collection.
	Blocks = blocking.Blocks
	// KeyFunc derives blocking keys from a description.
	KeyFunc = blocking.KeyFunc
	// ScalarKeyFunc derives a single sortable key per description.
	ScalarKeyFunc = blocking.ScalarKeyFunc

	// TokenBlocking is schema-agnostic token blocking.
	TokenBlocking = blocking.TokenBlocking
	// StandardBlocking is classic key-based blocking.
	StandardBlocking = blocking.StandardBlocking
	// AttributeClustering is attribute-clustering token blocking.
	AttributeClustering = blocking.AttributeClustering
	// SortedNeighborhood is (multi-pass) sorted neighborhood blocking.
	SortedNeighborhood = blocking.SortedNeighborhood
	// QGramsBlocking blocks on padded character q-grams.
	QGramsBlocking = blocking.QGramsBlocking
	// ExtendedQGrams blocks on q-gram combination sub-keys.
	ExtendedQGrams = blocking.ExtendedQGrams
	// SuffixArrayBlocking blocks on bounded-frequency key suffixes.
	SuffixArrayBlocking = blocking.SuffixArrayBlocking
	// Canopy is canopy clustering with cheap TF-IDF distances.
	Canopy = blocking.Canopy
	// PrefixInfixSuffix is URI-aware blocking for Linked Data.
	PrefixInfixSuffix = blocking.PrefixInfixSuffix
	// SimJoinBlocking blocks through a threshold similarity join (PPJoin).
	SimJoinBlocking = simjoin.Blocking
	// FrequentItemsetBlocking blocks on frequent token co-occurrence.
	FrequentItemsetBlocking = freqmine.Blocking
	// MultiBlock aggregates several blockers into one multidimensional
	// collection.
	MultiBlock = multiblock.Aggregator
)

// Key helpers.
var (
	// WholeValueKeys derives one key per attribute value.
	WholeValueKeys = blocking.WholeValueKeys
	// AttributeValueKey concatenates the named attributes into a sort key.
	AttributeValueKey = blocking.AttributeValueKey
	// SortedTokensKey is the schema-agnostic sort key.
	SortedTokensKey = blocking.SortedTokensKey
)

// Block cleaning.
type (
	// BlockProcessor transforms a blocking collection.
	BlockProcessor = blockproc.Processor
	// MaxComparisonsPurge drops blocks above a comparison bound.
	MaxComparisonsPurge = blockproc.MaxComparisonsPurge
	// AutoPurge derives the purge bound from the collection itself.
	AutoPurge = blockproc.AutoPurge
	// SizePurge drops blocks covering a large fraction of the collection.
	SizePurge = blockproc.SizePurge
	// BlockFiltering keeps each description in its most selective blocks.
	BlockFiltering = blockproc.BlockFiltering
)

// Meta-blocking.
type (
	// MetaBlocker restructures blocks through the weighted blocking graph.
	MetaBlocker = metablocking.MetaBlocker
	// WeightScheme selects the edge weighting.
	WeightScheme = metablocking.WeightScheme
	// PruneScheme selects the graph pruning.
	PruneScheme = metablocking.PruneScheme
	// BlockingGraph is the weighted graph meta-blocking operates on.
	BlockingGraph = graph.Graph
	// WeightedBlockingGraph is the incrementally-maintained co-occurrence
	// statistics core behind every weighting scheme: build it from a
	// finished block collection (WeightedGraphFromBlocks) or keep it
	// current under a stream of per-document deltas by registering it as
	// an observer of a BlockIndex (it implements the membership-observer
	// interface). Materialize weights with its Graph method.
	WeightedBlockingGraph = metablocking.WeightedGraph
)

// Meta-blocking schemes.
const (
	CBS  = metablocking.CBS
	ECBS = metablocking.ECBS
	JS   = metablocking.JS
	EJS  = metablocking.EJS
	ARCS = metablocking.ARCS

	WEP = metablocking.WEP
	CEP = metablocking.CEP
	WNP = metablocking.WNP
	CNP = metablocking.CNP
)

// BuildBlockingGraph constructs the weighted blocking graph of a block
// collection.
func BuildBlockingGraph(bs *Blocks, w WeightScheme) *BlockingGraph {
	return metablocking.BuildGraph(bs, w)
}

// NewWeightedBlockingGraph returns an empty weighted blocking graph for
// incremental (per-document delta) maintenance.
func NewWeightedBlockingGraph(kind Kind) *WeightedBlockingGraph {
	return metablocking.NewWeightedGraph(kind)
}

// WeightedGraphFromBlocks accumulates the co-occurrence statistics of a
// whole block collection.
func WeightedGraphFromBlocks(bs *Blocks) *WeightedBlockingGraph {
	return metablocking.FromBlocks(bs)
}

// Matching.
type (
	// ProfileSimilarity scores description pairs in [0,1].
	ProfileSimilarity = matching.ProfileSimilarity
	// TokenJaccard is schema-agnostic token Jaccard similarity.
	TokenJaccard = matching.TokenJaccard
	// TokenContainment is the merge-friendly overlap coefficient.
	TokenContainment = matching.TokenContainment
	// TFIDFCosine is TF-IDF weighted cosine similarity.
	TFIDFCosine = matching.TFIDFCosine
	// BestValueJW is the best Jaro-Winkler over value pairs.
	BestValueJW = matching.BestValueJW
	// Weighted combines measures with weights.
	Weighted = matching.Weighted
	// WeightedPart is one component of Weighted.
	WeightedPart = matching.WeightedPart
	// Matcher is a thresholded similarity decision.
	Matcher = matching.Matcher
	// MatchResult is the outcome of executing a matcher over candidates.
	MatchResult = matching.Result
)

// NewTFIDFCosine indexes the collection for TF-IDF cosine matching.
func NewTFIDFCosine(c *Collection, p *Profiler) *TFIDFCosine {
	return matching.NewTFIDFCosine(c, p)
}

// ResolveBlocks executes a matcher over a block collection's distinct
// comparisons.
func ResolveBlocks(c *Collection, bs *Blocks, m *Matcher) MatchResult {
	return matching.ResolveBlocks(c, bs, m)
}

// Iterative resolution.
type (
	// SwooshResult is the outcome of merging-based resolution.
	SwooshResult = iterative.SwooshResult
	// CollectiveResolver is relationship-based iterative resolution.
	CollectiveResolver = iterative.Collective
	// IterBlockResult is the outcome of iterative blocking.
	IterBlockResult = iterblock.Result
)

// RSwoosh runs merging-based resolution over the collection.
func RSwoosh(c *Collection, m *Matcher) SwooshResult { return iterative.RSwoosh(c, m) }

// IterativeBlocking runs block-at-a-time resolution with merge propagation.
func IterativeBlocking(c *Collection, bs *Blocks, m *Matcher) IterBlockResult {
	return iterblock.Resolve(c, bs, m)
}

// Progressive resolution.
type (
	// Scheduler orders candidate comparisons and accepts match feedback.
	Scheduler = progressive.Scheduler
	// ProgressiveResult is the outcome of a budgeted run.
	ProgressiveResult = progressive.RunResult
)

// Progressive scheduler constructors.
var (
	NewStaticOrder   = progressive.NewStaticOrder
	NewRandomOrder   = progressive.NewRandomOrder
	NewSlidingWindow = progressive.NewSlidingWindow
	NewHierarchy     = progressive.NewHierarchy
	NewPSNM          = progressive.NewPSNM
	NewBenefitCost   = progressive.NewBenefitCost
)

// RunProgressive executes comparisons from the scheduler within the
// budget, recording the recall curve against gt (pass an empty Matches
// when no ground truth is available). It is RunProgressiveParallel at one
// worker: the scheduler receives match feedback once per fixed-size wave.
func RunProgressive(c *Collection, s Scheduler, m *Matcher, gt *Matches, budget int64) ProgressiveResult {
	// A background context never cancels, so RunParallel cannot fail.
	res, _ := progressive.RunParallel(context.Background(), c, s, m, gt, budget, 1)
	return res
}

// Framework pipeline (Fig. 1).
type (
	// Pipeline wires the framework phases.
	Pipeline = core.Pipeline
	// PipelineResult is the outcome of a pipeline run.
	PipelineResult = core.Result
	// Mode selects the pipeline execution strategy.
	Mode = core.Mode
	// SchedulerFactory builds a progressive scheduler from the blocks.
	SchedulerFactory = core.SchedulerFactory
)

// Pipeline modes.
const (
	Batch            = core.Batch
	MergingIterative = core.MergingIterative
	IterativeBlocks  = core.IterativeBlocks
	CollectiveMode   = core.Collective
	ProgressiveMode  = core.Progressive
	StreamingMode    = core.Streaming
)

// Streaming resolution.
type (
	// StreamingResolver is a long-lived incremental resolver: it accepts a
	// stream of insert/update/delete operations and maintains blocks,
	// matches and entity clusters under them, with the differential
	// guarantee that its state always equals a from-scratch batch run over
	// the surviving descriptions — including, when StreamingConfig.Meta is
	// set, a batch run with the same meta-blocking configuration.
	StreamingResolver = incremental.Resolver
	// StreamingConfig parameterizes a StreamingResolver.
	StreamingConfig = incremental.Config
	// StreamingStats summarizes a resolver's work.
	StreamingStats = incremental.Stats
	// StreamingPerf is a resolver's cumulative per-op work counters:
	// reconcile effort (delta-proportional pruning-fate derivations,
	// matcher evaluations) and checkpoint compaction cost (full vs delta
	// snapshots, slots and pairs serialized). Machine-independent — the
	// same op stream yields the same counters on any host (PerfReporter).
	StreamingPerf = incremental.PerfCounters
	// StreamOp is one URI-addressed streaming operation (the op-log form).
	StreamOp = incremental.Op
	// StreamOpKind enumerates streaming operations.
	StreamOpKind = incremental.OpKind
	// StreamableBlocker is a blocker whose keys depend only on the
	// description itself, as streaming requires (token, standard and
	// q-grams blocking qualify).
	StreamableBlocker = blocking.StreamableBlocker
	// BlockIndex is the incrementally maintained key → block mapping.
	BlockIndex = blocking.BlockIndex
	// DynamicGraph maintains match-graph connected components under edge
	// insertion and node removal.
	DynamicGraph = graph.Dynamic
)

// Streaming operation kinds.
const (
	StreamInsert = incremental.OpInsert
	StreamUpdate = incremental.OpUpdate
	StreamDelete = incremental.OpDelete
)

// Durable streaming resolution: the WAL-backed storage layer.
type (
	// StreamingDurable tunes a persistent resolver's write-ahead log:
	// segment rotation size, snapshot-compaction cadence and fsync policy
	// (StreamingConfig.Durable).
	StreamingDurable = incremental.DurableOptions
	// StreamingRecovery reports what PersistentResolver restored: whether
	// state was found, the snapshot anchor, and how many WAL records the
	// bounded tail replay touched (StreamingResolver.Recovery).
	StreamingRecovery = incremental.RecoveryInfo
	// StreamJournal is the pluggable journal a resolver writes every
	// operation through before applying it; the in-memory resolver uses a
	// no-op implementation, PersistentResolver the WAL-backed one.
	StreamJournal = incremental.Journal
	// StreamRecord is one journaled operation in replayable form.
	StreamRecord = incremental.Record
)

// NewStreamingResolver validates the configuration and returns an empty
// in-memory streaming resolver (nothing is persisted).
//
// Deprecated: use Open with a Config carrying the same fields; it returns
// the unified Resolver interface. This constructor remains for one release.
func NewStreamingResolver(cfg StreamingConfig) (*StreamingResolver, error) {
	return incremental.New(cfg)
}

// PersistentResolver opens a durable streaming resolver backed by a
// write-ahead log in dir, creating it on first use. Every operation is
// journaled (fsync'd, CRC-framed segment files) before it is applied and
// periodically compacted into a snapshot of the full resolver state —
// surviving descriptions, blocks, match graph, weighted blocking graph and
// counters — so reopening the directory after a crash restores the
// snapshot and replays only the WAL tail. The recovered resolver is
// bit-identical to one that processed the acknowledged operations without
// interruption; use StreamingResolver.Recovery to inspect what was
// restored, Compact to checkpoint on demand, Snapshot to materialize the
// live state, and Close to seal the journal.
//
// Deprecated: use Open with Config.Dir set. This constructor remains for
// one release.
func PersistentResolver(dir string, cfg StreamingConfig) (*StreamingResolver, error) {
	return incremental.OpenResolver(dir, cfg)
}

// Sharded streaming resolution: the key-partitioned deployment form.
type (
	// ShardedResolver distributes the streaming resolver across the
	// blocking-key space: a coordinator hash-partitions keys over N shard
	// resolvers, fans every operation out in parallel, and merges the
	// shard-local match edges so reads are globally consistent — and
	// bit-exact with the single-node StreamingResolver (and batch) for
	// every shard count, including comparison counts and restructured
	// blocks. Shards journal to their own WALs (group-commit fsync
	// batching) and can be hard-stopped and rejoined from their own
	// snapshot + WAL tail (StopShard / RejoinShard) without global replay.
	ShardedResolver = sharded.Resolver
	// ShardedConfig parameterizes a ShardedResolver: the StreamingConfig
	// fields plus the shard count and per-shard durability options.
	ShardedConfig = sharded.Config
)

// NewShardedResolver validates the configuration and returns an empty
// in-memory sharded streaming resolver.
//
// Deprecated: use Open with Config.Shards > 1. This constructor remains
// for one release.
func NewShardedResolver(cfg ShardedConfig) (*ShardedResolver, error) {
	return sharded.New(cfg)
}

// PersistentShardedResolver opens a durable sharded resolver rooted at
// dir: shard i journals every operation to its own write-ahead log under
// dir/shard-%03d, and an existing directory is recovered shard by shard
// with the coordinator's replica rebuilt from the shards. The shard count
// is pinned in a manifest on first use.
//
// Deprecated: use Open with Config.Dir and Config.Shards set. This
// constructor remains for one release.
func PersistentShardedResolver(dir string, cfg ShardedConfig) (*ShardedResolver, error) {
	return sharded.Open(dir, cfg)
}

// NewBlockIndex returns an empty incremental block index.
func NewBlockIndex(kind Kind) *BlockIndex { return blocking.NewBlockIndex(kind) }

// NewDynamicGraph returns an empty dynamic match graph.
func NewDynamicGraph() *DynamicGraph { return graph.NewDynamic() }

// Op-log I/O: JSON-lines encoding of streaming operations.
var (
	// ReadStreamOps parses a JSON-lines operation log.
	ReadStreamOps = incremental.ReadOps
	// WriteStreamOps serializes operations as JSON lines.
	WriteStreamOps = incremental.WriteOps
)

// Concurrent execution.
type (
	// KeyedBlocker is implemented by blockers whose index build can be
	// sharded across the collection (token, standard, q-grams,
	// suffix-array, prefix-infix-suffix blocking).
	KeyedBlocker = blocking.KeyedBlocker
	// CompareIterator streams the distinct comparisons of a block
	// collection without materializing the pair list.
	CompareIterator = blocking.CompareIterator
)

// ParallelPipeline runs a Pipeline configuration with a chosen worker
// count: sharded blocking index build, node-centric meta-blocking over
// ranges of records, a matcher whose workers walk record neighbourhoods,
// and wave-parallel budgeted progressive runs. Pipeline.Run is the same
// engine at one worker, and results are deterministic across worker counts.
type ParallelPipeline struct {
	// Config is the phase configuration.
	Config Pipeline
	// Options sets the parallelism.
	Options ParallelOptions
}

// ParallelOptions sets the parallelism of a ParallelPipeline.
type ParallelOptions struct {
	// Workers sizes every phase's worker pool, the blocking index shards
	// included; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
}

// NewParallelPipeline returns the engine for a pipeline configuration; run
// it with Run(ctx, c).
func NewParallelPipeline(cfg Pipeline, opt ParallelOptions) *ParallelPipeline {
	return &ParallelPipeline{Config: cfg, Options: opt}
}

// Run executes the pipeline over the collection with the configured worker
// count, stopping with ctx.Err() when ctx is cancelled.
func (e *ParallelPipeline) Run(ctx context.Context, c *Collection) (*PipelineResult, error) {
	return e.Config.RunWorkers(ctx, c, e.Options.Workers)
}

// NewCompareIterator returns a streaming iterator over the distinct
// comparisons of bs, in deterministic block order.
func NewCompareIterator(bs *Blocks) *CompareIterator { return blocking.NewCompareIterator(bs) }

// BuildShardedBlocks builds kb's block collection with the entity
// collection sharded across concurrent workers; the result is identical to
// kb.Block(c) for any shard count.
func BuildShardedBlocks(ctx context.Context, c *Collection, kb KeyedBlocker, shards int) (*Blocks, error) {
	return blocking.BuildSharded(ctx, c, kb, shards)
}

// ResolveBlocksParallel executes a matcher over a block collection's
// distinct comparisons with a pool of concurrent workers that walk record
// neighbourhoods; the match output and comparison count equal
// ResolveBlocks for any worker count.
func ResolveBlocksParallel(ctx context.Context, c *Collection, bs *Blocks, m *Matcher, workers int) (MatchResult, error) {
	return matching.ResolveBlocksParallel(ctx, c, bs, m, workers)
}

// RunProgressiveParallel is RunProgressive with matcher execution fanned
// out to workers in fixed-size waves; it stops exactly at the comparison
// budget and its result does not depend on the worker count.
func RunProgressiveParallel(ctx context.Context, c *Collection, s Scheduler, m *Matcher, gt *Matches, budget int64, workers int) (ProgressiveResult, error) {
	return progressive.RunParallel(ctx, c, s, m, gt, budget, workers)
}

// Synthetic data generation.
type (
	// GenConfig parameterizes synthetic KB generation.
	GenConfig = datagen.Config
	// Corruption sets duplicate noise levels.
	Corruption = datagen.Corruption
	// Domain selects the generated vocabulary profile.
	Domain = datagen.Domain
)

// Generator domains.
const (
	People        = datagen.People
	Movies        = datagen.Movies
	Bibliographic = datagen.Bibliographic
)

// Generators and corruption presets.
var (
	GenerateDirty         = datagen.GenerateDirty
	GenerateCleanClean    = datagen.GenerateCleanClean
	GenerateBibliographic = datagen.GenerateBibliographic
	LightCorruption       = datagen.LightCorruption
	HeavyCorruption       = datagen.HeavyCorruption
)

// Streaming generation: million-record corpora without materializing them.
type (
	// GenRecord is one streamed generated description (URI, source,
	// attributes, and — for duplicates — the matched original's URI).
	GenRecord = datagen.Record
	// GenStream emits generated records one at a time in flat memory,
	// bit-identical to the materializing generators.
	GenStream = datagen.Stream
)

var (
	// StreamDirty streams GenerateDirty's corpus record by record.
	StreamDirty = datagen.StreamDirty
	// StreamCleanClean streams GenerateCleanClean's corpus, all KB0
	// records before the KB1 counterparts.
	StreamCleanClean = datagen.StreamCleanClean
	// GenColumns reports the attribute columns a streamed corpus can
	// carry, for CSV renderings.
	GenColumns = datagen.StreamColumns
)

// Evaluation.
type (
	// BlockingMetrics is PC/PQ/RR of a blocking collection.
	BlockingMetrics = evaluation.BlockingMetrics
	// PRF is precision/recall/F1 of a match output.
	PRF = evaluation.PRF
	// ClusterMetrics is entity-level (cluster) quality plus Rand index.
	ClusterMetrics = evaluation.ClusterMetrics
	// Curve is a progressive recall curve.
	Curve = evaluation.Curve
)

// Evaluation functions.
var (
	EvaluateBlocking = evaluation.EvaluateBlocking
	ComparePairs     = evaluation.ComparePairs
	EvaluateClusters = evaluation.EvaluateClusters
)

// ReadTruthTSV parses tab-separated URI pairs into a match set over c.
func ReadTruthTSV(c *Collection, r io.Reader) (*Matches, error) {
	return entity.ReadURIMatches(c, r)
}

// WriteTruthTSV serializes a match set as tab-separated URI pairs.
func WriteTruthTSV(w io.Writer, c *Collection, m *Matches) error {
	return entity.WriteURIMatches(w, c, m)
}

// RDF I/O.

// ReadNTriples parses an N-Triples document into the collection, tagging
// descriptions with the source index.
func ReadNTriples(c *Collection, r io.Reader, source int) error {
	return rdf.AddToCollection(c, r, source)
}

// WriteNTriples serializes the collection as N-Triples.
func WriteNTriples(w io.Writer, c *Collection) error {
	return rdf.WriteCollection(w, c)
}

// Tabular I/O: CSV and JSON-lines sources, schema-agnostic like the RDF
// path (package tabular). Every blocker and matcher sees tabular records
// exactly as it sees triples.

// TabularOptions configures tabular column mapping: ID column, per-source
// attribute renames, headerless schemas and the CSV delimiter.
type TabularOptions = tabular.Options

// ReadCSV parses a CSV document into the collection (one row per
// description), tagging descriptions with the source index.
func ReadCSV(c *Collection, r io.Reader, source int, opt TabularOptions) error {
	return tabular.AddCSV(c, r, source, opt)
}

// ReadJSONL parses a JSON-lines document into the collection (one object
// per description), tagging descriptions with the source index.
func ReadJSONL(c *Collection, r io.Reader, source int, opt TabularOptions) error {
	return tabular.AddJSONL(c, r, source, opt)
}

// WriteCSV serializes descriptions as headered CSV; the column order
// defaults to first-appearance attribute order (see TabularColumns).
func WriteCSV(w io.Writer, descs []*Description, opt TabularOptions) error {
	return tabular.WriteCSV(w, descs, opt)
}

// WriteJSONL serializes descriptions as JSON-lines, multi-valued
// attributes as arrays.
func WriteJSONL(w io.Writer, descs []*Description, opt TabularOptions) error {
	return tabular.WriteJSONL(w, descs, opt)
}

// TabularColumns reports the distinct attribute names of descs in
// first-appearance order — the derived CSV header.
func TabularColumns(descs []*Description) []string {
	return tabular.Columns(descs)
}

// WriteSourceMatches exports one source's view of a match set: one line
// per matched description of that source — its URI, then the sorted URIs
// of its partners — the per-source result export of a clean-clean
// interlinking run.
func WriteSourceMatches(w io.Writer, c *Collection, m *Matches, source int) error {
	return entity.WriteSourceMatches(w, c, m, source)
}
