// Command erbench runs the reproduction experiment suite E1–E12 (see
// DESIGN.md §3) and prints the result tables that EXPERIMENTS.md records.
// With -parallel it instead runs the batch pipeline at one worker and at
// -workers on a synthetic workload and prints the per-phase comparison.
// With -streaming-meta it replays a synthetic insert stream through the
// streaming resolver with and without live meta-blocking and reports
// throughput, the pruning ratio (comparisons saved by the live weighted
// blocking graph), and the durable leg: WAL persistence throughput plus
// crash-recovery time (snapshot restore + tail replay). Adding -json FILE
// also writes the -streaming-meta measurement as machine-readable JSON
// (e.g. BENCH_streaming.json) so the perf trajectory accumulates data
// points.
//
// The JSON payloads are schema 2: a "portable" section of
// machine-independent counters (comparisons, matches, kept pairs,
// reconcile work, snapshot compaction cost, replay lengths — identical for
// the same seed and scale on any host) and a "timing" section of
// machine-dependent wall-clock measurements. -baseline FILE diffs a fresh
// run's portable section against a committed payload, refusing mismatched
// scenarios (different entities/seed/meta/shards) and failing when any
// counter drifts beyond -tolerance — the CI regression gate. -short
// shrinks the bench modes to a ~400-entity scenario cheap enough to run on
// every push.
//
// With -streaming-shards N it replays the same insert stream through the
// single-node and the N-shard sharded streaming resolver, asserts the two
// are bit-identical, and reports throughput plus the durable leg
// (per-shard group-committed WAL persistence and shard-wise recovery);
// -json then writes BENCH_sharded.json.
//
// With -serve it loads the generated collection into an er.Open resolver,
// fronts it with the HTTP/JSON query service, and measures per-endpoint
// request latency (p50/p99/mean over loopback) including bulk ingest
// through POST /v1/ops, per-op vs batched; -json then writes
// BENCH_serve.json.
//
// With -bursty it replays the synthetic insert stream through the durable
// single-node and the networked deployments at batch sizes 1/16/64/256
// via the amortized ApplyBatch path, asserts the resolved state is
// identical at every size, and reports the amortization: journal appends,
// fan-outs and wire round trips per batch size, with the batch=64 ratio
// over per-op required to stay >= 8x. -json then writes BENCH_bursty.json.
//
// With -concurrent it preloads 70% of the synthetic stream, then runs a
// mixed workload — a writer streaming the remaining ops while reader
// fleets of 1, 4 and 16 goroutines hammer the query surface — reporting
// per-fleet read latency (p50/p99) and aggregate read QPS. Every run must
// resolve to the state of a sequential replay (asserted), and on a
// multi-core host (GOMAXPROCS >= 4) the 16-reader fleet's aggregate read
// throughput must be >= 3x the single reader's — the concurrent-read
// scaling assertion. -json then writes BENCH_concurrent.json.
//
// With -ingest it streams one clean-clean generator pass into N-Triples,
// CSV and JSON-lines files (a million-record corpus without -short), then
// parses and resolves each format end-to-end through the same batch
// pipeline, asserting the three produce bit-identical matches, comparison
// counts and blocks (canonical sha256 digests) — the measured difference
// is parse cost alone. The streamed parse leg's live heap is reported to
// show ingestion memory stays flat in the corpus size; -json then writes
// BENCH_ingest.json.
//
// Usage:
//
//	erbench [-experiment E1|E2|...|all] [-scale small|medium] [-seed N]
//	erbench -parallel [-workers N] [-scale small|medium] [-seed N]
//	erbench -streaming-meta [-meta-weight CBS|ECBS|JS] [-meta-prune WEP|WNP]
//	        [-workers N] [-scale small|medium] [-short] [-seed N]
//	        [-json FILE] [-baseline FILE [-tolerance F]]
//	erbench -streaming-shards N [-workers N] [-scale small|medium] [-short]
//	        [-seed N] [-json FILE] [-baseline FILE [-tolerance F]]
//	erbench -serve [-workers N] [-scale small|medium] [-short] [-seed N]
//	        [-json FILE] [-baseline FILE [-tolerance F]]
//	erbench -bursty [-workers N] [-scale small|medium] [-short] [-seed N]
//	        [-json FILE] [-baseline FILE [-tolerance F]]
//	erbench -concurrent [-workers N] [-scale small|medium] [-short] [-seed N]
//	        [-json FILE] [-baseline FILE [-tolerance F]]
//	erbench -ingest [-short] [-seed N]
//	        [-json FILE] [-baseline FILE [-tolerance F]]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"entityres/er"
	"entityres/internal/experiments"
	"entityres/internal/serve"
)

func main() {
	var (
		which    = flag.String("experiment", "all", "experiment id (E1..E12) or 'all'")
		scale    = flag.String("scale", "small", "experiment scale: small or medium")
		seed     = flag.Int64("seed", 42, "deterministic data-generation seed")
		parallel = flag.Bool("parallel", false, "benchmark the batch pipeline at -workers against one worker")
		workers  = flag.Int("workers", 0, "pipeline workers for -parallel (0 = GOMAXPROCS)")

		streamMeta = flag.Bool("streaming-meta", false, "benchmark the streaming resolver with and without live meta-blocking and report the pruning ratio")
		metaWeight = flag.String("meta-weight", "CBS", "stream-safe weight scheme for -streaming-meta: CBS, ECBS or JS")
		metaPrune  = flag.String("meta-prune", "WEP", "stream-safe prune scheme for -streaming-meta: WEP or WNP")

		streamShards = flag.Int("streaming-shards", 0, "benchmark the sharded streaming resolver with N key-hash shards against the single-node resolver (bit-equality asserted)")
		serveBench   = flag.Bool("serve", false, "benchmark the HTTP/JSON query service: per-endpoint latency (p50/p99) over a loaded resolver")
		bursty       = flag.Bool("bursty", false, "benchmark bursty ingestion: replay the synthetic stream through the durable and networked deployments at batch sizes 1/16/64/256 and report the amortization (journal appends, fan-outs, wire round trips)")
		concurrent   = flag.Bool("concurrent", false, "benchmark the concurrent read path: reader fleets of 1/4/16 goroutines racing a live writer, reporting read p50/p99 and aggregate QPS (scaling asserted on multi-core)")
		ingest       = flag.Bool("ingest", false, "benchmark tabular ingestion: one streamed generator pass fans a clean-clean corpus into nt/csv/jsonl, each format is parsed and resolved end-to-end, and the three must be bit-identical (a million records without -short)")
		jsonPath     = flag.String("json", "", "with a bench mode: also write the machine-readable benchmark result to this file, e.g. BENCH_streaming.json / BENCH_sharded.json / BENCH_serve.json / BENCH_bursty.json")
		short        = flag.Bool("short", false, "bench modes: shrink the scenario to ~400 entities (the CI regression-gate scale)")
		baseline     = flag.String("baseline", "", "with a bench mode: diff the fresh run's portable counters against this committed JSON payload and fail on drift beyond -tolerance")
		tolerance    = flag.Float64("tolerance", 0.01, "relative drift allowed per portable counter when diffing against -baseline")
	)
	flag.Parse()
	var sc experiments.Scale
	switch strings.ToLower(*scale) {
	case "small":
		sc = experiments.Small
	case "medium":
		sc = experiments.Medium
	default:
		fmt.Fprintf(os.Stderr, "erbench: unknown scale %q (want small or medium)\n", *scale)
		os.Exit(2)
	}
	benchMode := *streamMeta || *streamShards > 0 || *serveBench || *bursty || *concurrent || *ingest
	if (*jsonPath != "" || *baseline != "") && !benchMode {
		fmt.Fprintln(os.Stderr, "erbench: -json/-baseline require -streaming-meta, -streaming-shards, -serve, -bursty, -concurrent or -ingest")
		os.Exit(2)
	}
	out := benchOutput{jsonPath: *jsonPath, baseline: *baseline, tolerance: *tolerance}
	entities := 1500
	if sc == experiments.Medium {
		entities = 6000
	}
	if *short {
		entities = 400
	}
	if *parallel {
		if err := runParallelComparison(sc, *seed, *workers); err != nil {
			fmt.Fprintf(os.Stderr, "erbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *streamMeta {
		if err := runStreamingMeta(entities, *seed, *workers, *metaWeight, *metaPrune, out); err != nil {
			fmt.Fprintf(os.Stderr, "erbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *streamShards > 0 {
		if err := runStreamingShards(entities, *seed, *workers, *streamShards, out); err != nil {
			fmt.Fprintf(os.Stderr, "erbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *serveBench {
		if err := runServeBench(entities, *seed, *workers, out); err != nil {
			fmt.Fprintf(os.Stderr, "erbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *bursty {
		if err := runBurstyIngest(entities, *seed, *workers, out); err != nil {
			fmt.Fprintf(os.Stderr, "erbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *concurrent {
		if err := runConcurrentBench(entities, *seed, *workers, out); err != nil {
			fmt.Fprintf(os.Stderr, "erbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *ingest {
		if err := runIngestBench(*short, *seed, *workers, out); err != nil {
			fmt.Fprintf(os.Stderr, "erbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	ran := 0
	for _, e := range experiments.All() {
		if *which != "all" && !strings.EqualFold(*which, e.ID) {
			continue
		}
		ran++
		t0 := time.Now()
		res, err := e.Run(sc, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "erbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		if err := res.Table.Fprint(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "erbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("(%s completed in %v)\n\n", e.ID, time.Since(t0).Round(time.Millisecond))
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "erbench: unknown experiment %q\n", *which)
		os.Exit(2)
	}
}

// runParallelComparison runs the same pipeline configuration at one worker
// and at the given worker count, asserts the match sets are identical, and
// prints per-phase wall times with the speedup.
func runParallelComparison(sc experiments.Scale, seed int64, workers int) error {
	entities := 1500
	if sc == experiments.Medium {
		entities = 6000
	}
	c, gt, err := er.GenerateDirty(er.GenConfig{Seed: seed, Entities: entities, MaxDuplicates: 2})
	if err != nil {
		return err
	}
	cfg := er.Pipeline{
		Blocker:    &er.TokenBlocking{},
		Processors: []er.BlockProcessor{&er.BlockFiltering{}},
		Meta:       &er.MetaBlocker{Weight: er.ECBS, Prune: er.WEP},
		Matcher:    &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: 0.5},
	}
	// Report the resolved parallelism, not the raw flag, so recorded
	// output says what the measured run actually used.
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	fmt.Printf("pipeline comparison: %d descriptions, seed %d, GOMAXPROCS %d, workers %d\n",
		c.Len(), seed, runtime.GOMAXPROCS(0), workers)

	// Discarded warm-up pass: the first run through the data pays allocator
	// growth and cache warm-up that whichever run goes second would
	// otherwise inherit for free, biasing the reported speedup.
	warmCfg := cfg
	if _, err := warmCfg.Run(c); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}

	seqCfg := cfg
	t0 := time.Now()
	seqRes, err := seqCfg.Run(c)
	if err != nil {
		return fmt.Errorf("sequential: %w", err)
	}
	seqTotal := time.Since(t0)

	eng := er.NewParallelPipeline(cfg, er.ParallelOptions{Workers: workers})
	t0 = time.Now()
	parRes, err := eng.Run(context.Background(), c)
	if err != nil {
		return fmt.Errorf("parallel: %w", err)
	}
	parTotal := time.Since(t0)

	if !sameMatches(seqRes.Matches, parRes.Matches) {
		return fmt.Errorf("match sets differ: sequential %d, parallel %d", seqRes.Matches.Len(), parRes.Matches.Len())
	}

	fmt.Printf("\n%-16s %14s %14s\n", "phase", "sequential", "parallel")
	par := phaseIndex(parRes)
	for _, ph := range seqRes.Phases {
		fmt.Printf("%-16s %14v %14v\n", ph.Name, ph.Duration.Round(time.Microsecond), par[ph.Name].Round(time.Microsecond))
	}
	fmt.Printf("%-16s %14v %14v\n", "total", seqTotal.Round(time.Microsecond), parTotal.Round(time.Microsecond))
	fmt.Printf("\nmatches=%d comparisons=%d identical=true speedup=%.2fx recall=%.3f\n",
		parRes.Matches.Len(), parRes.Comparisons,
		float64(seqTotal)/float64(parTotal),
		er.ComparePairs(parRes.Matches, gt).Recall)
	return nil
}

// The -json payloads are schema 2, split into two sections:
//
//   - "portable": machine-independent counters. For a fixed scenario
//     (entities, seed, meta/shard configuration) every field is identical
//     on any host — they measure the algorithm, not the machine — so a
//     committed payload is a regression baseline any CI runner can check.
//   - "timing": wall-clock measurements (and the resolved worker count
//     that shaped them). Never compared across machines.
//
// benchSchema is bumped whenever the payload shape changes incompatibly;
// the -baseline differ refuses other schemas.
const benchSchema = 2

// benchCountersJSON is one measured replay's portable result.
type benchCountersJSON struct {
	Comparisons int64 `json:"comparisons"`
	Matches     int   `json:"matches"`
}

// benchTimingJSON is one measured replay's wall-clock cost.
type benchTimingJSON struct {
	WallNS  int64 `json:"wall_ns"`
	NSPerOp int64 `json:"ns_per_op"`
}

// benchPerfJSON mirrors er.StreamingPerf: reconcile effort, snapshot
// compaction cost, and the amortization counters (journal appends,
// fan-outs, wire round trips), all machine-independent.
type benchPerfJSON struct {
	Reconciles          int64 `json:"reconciles"`
	ReconcileExamined   int64 `json:"reconcile_examined"`
	ReconcileEvaluated  int64 `json:"reconcile_evaluated"`
	FullSnapshots       int64 `json:"full_snapshots"`
	SnapshotSlots       int64 `json:"snapshot_slots"`
	SnapshotPairs       int64 `json:"snapshot_pairs"`
	JournalAppends      int64 `json:"journal_appends"`
	FanOuts             int64 `json:"fan_outs"`
	TransportRoundTrips int64 `json:"transport_round_trips"`
}

func perfJSON(p er.StreamingPerf) benchPerfJSON {
	return benchPerfJSON{
		Reconciles:          p.Reconciles,
		ReconcileExamined:   p.ReconcileExamined,
		ReconcileEvaluated:  p.ReconcileEvaluated,
		FullSnapshots:       p.FullSnapshots,
		SnapshotSlots:       p.SnapshotSlots,
		SnapshotPairs:       p.SnapshotPairs,
		JournalAppends:      p.JournalAppends,
		FanOuts:             p.FanOuts,
		TransportRoundTrips: p.TransportRoundTrips,
	}
}

// benchRecoveryPortableJSON is the durable leg's portable half: the
// journal geometry the persist run produced and what the reopen replayed.
type benchRecoveryPortableJSON struct {
	Ops             int64         `json:"ops"`
	SnapshotEvery   int           `json:"snapshot_every"`
	SnapshotSegment uint64        `json:"snapshot_segment"`
	ReplayedRecords int           `json:"replayed_records"`
	Perf            benchPerfJSON `json:"perf"`
}

// benchStreamingPortableJSON identifies the -streaming-meta scenario and
// carries its machine-independent results.
type benchStreamingPortableJSON struct {
	Entities              int                       `json:"entities"`
	Seed                  int64                     `json:"seed"`
	Meta                  string                    `json:"meta"`
	Frontier              benchCountersJSON         `json:"frontier"`
	Pruned                benchCountersJSON         `json:"pruned"`
	KeptPairs             int                       `json:"kept_pairs"`
	CandidatePairs        int                       `json:"candidate_pairs"`
	ComparisonsSavedRatio float64                   `json:"comparisons_saved_ratio"`
	PrunedPerf            benchPerfJSON             `json:"pruned_perf"`
	Recovery              benchRecoveryPortableJSON `json:"recovery"`
}

// benchStreamingTimingJSON is the -streaming-meta wall-clock section.
type benchStreamingTimingJSON struct {
	Workers        int             `json:"workers"`
	Frontier       benchTimingJSON `json:"frontier"`
	Pruned         benchTimingJSON `json:"pruned"`
	PersistWallNS  int64           `json:"persist_wall_ns"`
	PersistNSPerOp int64           `json:"persist_ns_per_op"`
	RecoveryWallNS int64           `json:"recovery_wall_ns"`
}

// benchJSON is the machine-readable -json payload (BENCH_streaming.json).
type benchJSON struct {
	Schema   int                        `json:"schema"`
	Name     string                     `json:"name"`
	Portable benchStreamingPortableJSON `json:"portable"`
	Timing   benchStreamingTimingJSON   `json:"timing"`
}

// benchOutput carries the -json / -baseline / -tolerance flags into the
// bench modes.
type benchOutput struct {
	jsonPath  string
	baseline  string
	tolerance float64
}

// emit marshals payload, diffs it against the committed baseline when one
// was named (failing the run on drift), and writes it when -json was set.
func (o benchOutput) emit(payload any) error {
	data, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if o.baseline != "" {
		if err := diffBaseline(data, o.baseline, o.tolerance); err != nil {
			return err
		}
		fmt.Printf("baseline %s: portable counters within tolerance %.3f\n", o.baseline, o.tolerance)
	}
	if o.jsonPath != "" {
		if err := os.WriteFile(o.jsonPath, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", o.jsonPath)
	}
	return nil
}

// benchIdentityFields are portable fields that define the scenario rather
// than measure it: a baseline with different values is a different
// benchmark, and diffing against it would be meaningless — the gate
// refuses instead of reporting drift.
var benchIdentityFields = map[string]bool{
	"entities":                true,
	"seed":                    true,
	"meta":                    true,
	"shards":                  true,
	"requests_per_endpoint":   true,
	"ingest_requests":         true,
	"ingest_batch":            true,
	"ops":                     true,
	"recovery.ops":            true,
	"recovery.snapshot_every": true,
	"preload_ops":             true,
	"live_ops":                true,
	"reads_per_reader":        true,
	"readers":                 true,
	"records":                 true,
	"vocab_scale":             true,
	"purge_max":               true,
}

// diffBaseline compares the fresh payload's portable section against the
// committed baseline's, field by field. Identity fields must match
// exactly; every other numeric field may drift at most tol relative to
// the baseline value. The timing section is never compared.
func diffBaseline(fresh []byte, baselinePath string, tol float64) error {
	var head struct {
		Schema   int            `json:"schema"`
		Name     string         `json:"name"`
		Portable map[string]any `json:"portable"`
	}
	if err := json.Unmarshal(fresh, &head); err != nil {
		return err
	}
	baseData, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base struct {
		Schema   int            `json:"schema"`
		Name     string         `json:"name"`
		Portable map[string]any `json:"portable"`
	}
	if err := json.Unmarshal(baseData, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", baselinePath, err)
	}
	if base.Schema != benchSchema {
		return fmt.Errorf("baseline %s has schema %d, this erbench writes %d — regenerate it with -json", baselinePath, base.Schema, benchSchema)
	}
	if base.Name != head.Name {
		return fmt.Errorf("baseline %s records benchmark %q, this run is %q", baselinePath, base.Name, head.Name)
	}
	got, want := flattenJSON("", head.Portable), flattenJSON("", base.Portable)
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var drift []string
	for _, k := range keys {
		gv, ok := got[k]
		if !ok {
			return fmt.Errorf("baseline %s has portable field %q this erbench no longer writes — regenerate the baseline", baselinePath, k)
		}
		if benchIdentityFields[k] {
			if gv != want[k] {
				return fmt.Errorf("scenario mismatch: %s is %v here but %v in baseline %s — refusing to diff different scales/seeds/configurations", k, gv, want[k], baselinePath)
			}
			continue
		}
		gn, gNum := gv.(float64)
		wn, wNum := want[k].(float64)
		switch {
		case gNum && wNum:
			if diff := math.Abs(gn - wn); diff > tol*math.Max(math.Abs(wn), 1) {
				drift = append(drift, fmt.Sprintf("  %s: %v (baseline %v)", k, gn, wn))
			}
		default: // bools and strings compare exactly
			if gv != want[k] {
				drift = append(drift, fmt.Sprintf("  %s: %v (baseline %v)", k, gv, want[k]))
			}
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			return fmt.Errorf("this erbench writes portable field %q missing from baseline %s — regenerate the baseline", k, baselinePath)
		}
	}
	if len(drift) > 0 {
		return fmt.Errorf("portable counters drifted beyond tolerance %.3f vs %s:\n%s\nif the change is intended, regenerate the committed baselines with -json",
			tol, baselinePath, strings.Join(drift, "\n"))
	}
	return nil
}

// flattenJSON renders a decoded JSON object as dotted-path → leaf value.
func flattenJSON(prefix string, v any) map[string]any {
	out := map[string]any{}
	m, ok := v.(map[string]any)
	if !ok {
		out[prefix] = v
		return out
	}
	for k, sub := range m {
		p := k
		if prefix != "" {
			p = prefix + "." + k
		}
		for kk, vv := range flattenJSON(p, sub) {
			out[kk] = vv
		}
	}
	return out
}

// runStreamingMeta replays one synthetic insert stream through two
// streaming resolvers — frontier matching vs. live meta-blocking — and
// reports throughput plus the pruning ratio: the share of matcher
// comparisons the live weighted blocking graph saved. It then persists the
// stream through a WAL-backed resolver and measures crash recovery
// (reopen = snapshot restore + tail replay). The measurement is emitted
// per the -json/-baseline flags in out.
func runStreamingMeta(entities int, seed int64, workers int, weightNm, pruneNm string, out benchOutput) error {
	var weight er.WeightScheme
	switch strings.ToUpper(weightNm) {
	case "CBS":
		weight = er.CBS
	case "ECBS":
		weight = er.ECBS
	case "JS":
		weight = er.JS
	default:
		return fmt.Errorf("-meta-weight %q is not stream-safe (want CBS, ECBS or JS)", weightNm)
	}
	var prune er.PruneScheme
	switch strings.ToUpper(pruneNm) {
	case "WEP":
		prune = er.WEP
	case "WNP":
		prune = er.WNP
	default:
		return fmt.Errorf("-meta-prune %q is not stream-safe (want WEP or WNP)", pruneNm)
	}
	c, _, err := er.GenerateDirty(er.GenConfig{Seed: seed, Entities: entities, MaxDuplicates: 2})
	if err != nil {
		return err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	meta := &er.MetaBlocker{Weight: weight, Prune: prune}
	fmt.Printf("streaming meta-blocking: %d descriptions, seed %d, workers %d, %s\n",
		c.Len(), seed, workers, meta.Name())

	replay := func(meta *er.MetaBlocker) (er.StreamingStats, er.StreamingPerf, time.Duration, error) {
		ctx := context.Background()
		r, err := er.Open(ctx, er.Config{
			Kind:    er.Dirty,
			Blocker: &er.TokenBlocking{},
			Matcher: &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: 0.5},
			Workers: workers,
			Meta:    meta,
		})
		if err != nil {
			return er.StreamingStats{}, er.StreamingPerf{}, 0, err
		}
		defer r.Close()
		t0 := time.Now()
		for _, d := range c.All() {
			if _, err := r.Insert(ctx, d); err != nil {
				return er.StreamingStats{}, er.StreamingPerf{}, 0, err
			}
		}
		if meta != nil {
			if err := r.Flush(ctx); err != nil {
				return er.StreamingStats{}, er.StreamingPerf{}, 0, err
			}
		}
		st, err := r.Stats()
		if err != nil {
			return er.StreamingStats{}, er.StreamingPerf{}, 0, err
		}
		return st, r.(er.PerfReporter).Perf(), time.Since(t0), nil
	}

	base, _, baseDur, err := replay(nil)
	if err != nil {
		return fmt.Errorf("without meta: %w", err)
	}
	pruned, prunedPerf, prunedDur, err := replay(meta)
	if err != nil {
		return fmt.Errorf("with meta: %w", err)
	}

	fmt.Printf("\n%-14s %14s %14s %12s %10s\n", "run", "comparisons", "matches", "wall", "ops/sec")
	opsPerSec := func(d time.Duration) float64 { return float64(c.Len()) / d.Seconds() }
	fmt.Printf("%-14s %14d %14d %12v %10.0f\n", "frontier", base.Comparisons, base.Matches, baseDur.Round(time.Microsecond), opsPerSec(baseDur))
	fmt.Printf("%-14s %14d %14d %12v %10.0f\n", meta.Name(), pruned.Comparisons, pruned.Matches, prunedDur.Round(time.Microsecond), opsPerSec(prunedDur))
	saved := 0.0
	if base.Comparisons > 0 {
		saved = 1 - float64(pruned.Comparisons)/float64(base.Comparisons)
	}
	keptRatio := 0.0
	if pruned.CandidatePairs > 0 {
		keptRatio = float64(pruned.KeptPairs) / float64(pruned.CandidatePairs)
	}
	fmt.Printf("\npruning ratio: %.3f comparisons saved (kept %d of %d candidate pairs, %.3f)\n",
		saved, pruned.KeptPairs, pruned.CandidatePairs, keptRatio)

	// Durable leg: persist the same stream through the WAL-backed resolver,
	// hard-close, and measure recovery. A quarter-stream snapshot cadence
	// leaves a real tail for the reopen to replay.
	walDir, err := os.MkdirTemp("", "erbench-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(walDir)
	durable := er.StreamingDurable{SnapshotEvery: entities / 4, NoSync: true}
	durableCfg := er.Config{
		Kind:    er.Dirty,
		Blocker: &er.TokenBlocking{},
		Matcher: &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: 0.5},
		Workers: workers,
		Dir:     walDir,
		Durable: durable,
	}
	ctx := context.Background()
	pr, err := er.Open(ctx, durableCfg)
	if err != nil {
		return fmt.Errorf("persistent: %w", err)
	}
	t0 := time.Now()
	for _, d := range c.All() {
		if _, err := pr.Insert(ctx, d); err != nil {
			return fmt.Errorf("persistent: %w", err)
		}
	}
	persistDur := time.Since(t0)
	if err := pr.Close(); err != nil {
		return err
	}
	persistPerf := pr.(er.PerfReporter).Perf()
	t0 = time.Now()
	re, err := er.Open(ctx, durableCfg)
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	recoveryDur := time.Since(t0)
	rec := re.(er.DurableReporter).Recovery()[0]
	if st, err := re.Stats(); err != nil {
		return fmt.Errorf("recovery: %w", err)
	} else if st.Live != c.Len() {
		return fmt.Errorf("recovery restored %d live descriptions, want %d", st.Live, c.Len())
	}
	if err := re.Close(); err != nil {
		return err
	}
	fmt.Printf("durable:       persist %v (%.0f ops/sec, unsynced), recovery %v (snapshot at segment %d + %d wal records)\n",
		persistDur.Round(time.Microsecond), opsPerSec(persistDur),
		recoveryDur.Round(time.Microsecond), rec.SnapshotSegment, rec.ReplayedRecords)

	if out.jsonPath == "" && out.baseline == "" {
		return nil
	}
	nsPerOp := func(d time.Duration) int64 { return d.Nanoseconds() / int64(c.Len()) }
	payload := benchJSON{
		Schema: benchSchema,
		Name:   "streaming",
		Portable: benchStreamingPortableJSON{
			Entities:              c.Len(),
			Seed:                  seed,
			Meta:                  meta.Name(),
			Frontier:              benchCountersJSON{Comparisons: base.Comparisons, Matches: base.Matches},
			Pruned:                benchCountersJSON{Comparisons: pruned.Comparisons, Matches: pruned.Matches},
			KeptPairs:             pruned.KeptPairs,
			CandidatePairs:        pruned.CandidatePairs,
			ComparisonsSavedRatio: saved,
			PrunedPerf:            perfJSON(prunedPerf),
			Recovery: benchRecoveryPortableJSON{
				Ops:             int64(c.Len()),
				SnapshotEvery:   durable.SnapshotEvery,
				SnapshotSegment: rec.SnapshotSegment,
				ReplayedRecords: rec.ReplayedRecords,
				Perf:            perfJSON(persistPerf),
			},
		},
		Timing: benchStreamingTimingJSON{
			Workers:        workers,
			Frontier:       benchTimingJSON{WallNS: baseDur.Nanoseconds(), NSPerOp: nsPerOp(baseDur)},
			Pruned:         benchTimingJSON{WallNS: prunedDur.Nanoseconds(), NSPerOp: nsPerOp(prunedDur)},
			PersistWallNS:  persistDur.Nanoseconds(),
			PersistNSPerOp: nsPerOp(persistDur),
			RecoveryWallNS: recoveryDur.Nanoseconds(),
		},
	}
	return out.emit(&payload)
}

// benchShardRecoveryPortableJSON is the sharded durable leg's portable
// half: per-shard group-committed WAL persistence plus a full reopen
// (every shard restored from its own snapshot + tail).
type benchShardRecoveryPortableJSON struct {
	Ops                int64         `json:"ops"`
	SnapshotEvery      int           `json:"snapshot_every"`
	ReplayedRecordsMax int           `json:"replayed_records_max"`
	Perf               benchPerfJSON `json:"perf"`
}

// benchShardedPortableJSON identifies the -streaming-shards scenario and
// carries its machine-independent results.
type benchShardedPortableJSON struct {
	Entities  int                            `json:"entities"`
	Seed      int64                          `json:"seed"`
	Shards    int                            `json:"shards"`
	Single    benchCountersJSON              `json:"single"`
	Sharded   benchCountersJSON              `json:"sharded"`
	Identical bool                           `json:"identical"`
	Recovery  benchShardRecoveryPortableJSON `json:"recovery"`
}

// benchShardedTimingJSON is the -streaming-shards wall-clock section.
type benchShardedTimingJSON struct {
	Workers        int             `json:"workers"`
	Single         benchTimingJSON `json:"single"`
	Sharded        benchTimingJSON `json:"sharded"`
	Speedup        float64         `json:"speedup"`
	PersistWallNS  int64           `json:"persist_wall_ns"`
	PersistNSPerOp int64           `json:"persist_ns_per_op"`
	RecoveryWallNS int64           `json:"recovery_wall_ns"`
}

// benchShardedJSON is the machine-readable -json payload of the
// sharded-streaming mode (BENCH_sharded.json).
type benchShardedJSON struct {
	Schema   int                      `json:"schema"`
	Name     string                   `json:"name"`
	Portable benchShardedPortableJSON `json:"portable"`
	Timing   benchShardedTimingJSON   `json:"timing"`
}

// runStreamingShards replays one synthetic insert stream through the
// single-node and the N-shard sharded streaming resolver, asserts their
// matches AND comparison counts are identical (the cross-shard
// differential contract), and reports throughput plus the sharded durable
// leg: per-shard group-committed WAL persistence and whole-deployment
// recovery. The measurement is emitted per the -json/-baseline flags.
func runStreamingShards(entities int, seed int64, workers, shards int, out benchOutput) error {
	c, _, err := er.GenerateDirty(er.GenConfig{Seed: seed, Entities: entities, MaxDuplicates: 2})
	if err != nil {
		return err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	fmt.Printf("sharded streaming: %d descriptions, seed %d, %d shards, %d workers/shard\n",
		c.Len(), seed, shards, workers)
	ctx := context.Background()
	matcher := func() *er.Matcher { return &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: 0.5} }

	single, err := er.Open(ctx, er.Config{
		Kind: er.Dirty, Blocker: &er.TokenBlocking{}, Matcher: matcher(), Workers: workers,
	})
	if err != nil {
		return err
	}
	defer single.Close()
	t0 := time.Now()
	for _, d := range c.All() {
		if _, err := single.Insert(ctx, d); err != nil {
			return fmt.Errorf("single-node: %w", err)
		}
	}
	singleDur := time.Since(t0)
	singleStats, err := single.Stats()
	if err != nil {
		return fmt.Errorf("single-node: %w", err)
	}

	sh, err := er.Open(ctx, er.Config{
		Kind: er.Dirty, Blocker: &er.TokenBlocking{}, Matcher: matcher(), Workers: workers, Shards: shards,
	})
	if err != nil {
		return err
	}
	defer sh.Close()
	t0 = time.Now()
	for _, d := range c.All() {
		if _, err := sh.Insert(ctx, d); err != nil {
			return fmt.Errorf("sharded: %w", err)
		}
	}
	shardedDur := time.Since(t0)
	shardedStats, err := sh.Stats()
	if err != nil {
		return fmt.Errorf("sharded: %w", err)
	}

	identical := singleStats == shardedStats && sameSameAs(ctx, single, sh, c)
	if !identical {
		return fmt.Errorf("sharded state diverges from single-node: %+v vs %+v", shardedStats, singleStats)
	}
	opsPerSec := func(d time.Duration) float64 { return float64(c.Len()) / d.Seconds() }
	fmt.Printf("\n%-14s %14s %14s %12s %10s\n", "run", "comparisons", "matches", "wall", "ops/sec")
	fmt.Printf("%-14s %14d %14d %12v %10.0f\n", "single-node", singleStats.Comparisons, singleStats.Matches,
		singleDur.Round(time.Microsecond), opsPerSec(singleDur))
	fmt.Printf("%-14s %14d %14d %12v %10.0f\n", fmt.Sprintf("sharded n=%d", shards), shardedStats.Comparisons,
		shardedStats.Matches, shardedDur.Round(time.Microsecond), opsPerSec(shardedDur))
	speedup := float64(singleDur) / float64(shardedDur)
	fmt.Printf("\nidentical=true speedup=%.2fx\n", speedup)

	// Durable leg: persist through per-shard group-committed WALs, abandon
	// (hard stop), and measure the whole-deployment reopen — each shard
	// restores from its own snapshot + tail.
	walDir, err := os.MkdirTemp("", "erbench-sharded-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(walDir)
	durable := er.StreamingDurable{SnapshotEvery: entities / 4, NoSync: true}
	shardedCfg := er.Config{
		Kind: er.Dirty, Blocker: &er.TokenBlocking{}, Matcher: matcher(), Workers: workers,
		Shards: shards, Dir: walDir, Durable: durable,
	}
	pr, err := er.Open(ctx, shardedCfg)
	if err != nil {
		return fmt.Errorf("persistent sharded: %w", err)
	}
	t0 = time.Now()
	for _, d := range c.All() {
		if _, err := pr.Insert(ctx, d); err != nil {
			return fmt.Errorf("persistent sharded: %w", err)
		}
	}
	persistDur := time.Since(t0)
	persistPerf := pr.(er.PerfReporter).Perf()
	pr.(er.DurableReporter).Abandon()
	t0 = time.Now()
	re, err := er.Open(ctx, shardedCfg)
	if err != nil {
		return fmt.Errorf("sharded recovery: %w", err)
	}
	recoveryDur := time.Since(t0)
	replayedMax := 0
	for _, rec := range re.(er.DurableReporter).Recovery() {
		if rec.ReplayedRecords > replayedMax {
			replayedMax = rec.ReplayedRecords
		}
	}
	if st, err := re.Stats(); err != nil {
		return fmt.Errorf("sharded recovery: %w", err)
	} else if st.Live != c.Len() {
		return fmt.Errorf("sharded recovery restored %d live descriptions, want %d", st.Live, c.Len())
	}
	if err := re.Close(); err != nil {
		return err
	}
	fmt.Printf("durable:       persist %v (%.0f ops/sec, group-committed, unsynced), recovery %v (max %d wal records per shard)\n",
		persistDur.Round(time.Microsecond), opsPerSec(persistDur),
		recoveryDur.Round(time.Microsecond), replayedMax)

	if out.jsonPath == "" && out.baseline == "" {
		return nil
	}
	nsPerOp := func(d time.Duration) int64 { return d.Nanoseconds() / int64(c.Len()) }
	payload := benchShardedJSON{
		Schema: benchSchema,
		Name:   "sharded-streaming",
		Portable: benchShardedPortableJSON{
			Entities:  c.Len(),
			Seed:      seed,
			Shards:    shards,
			Single:    benchCountersJSON{Comparisons: singleStats.Comparisons, Matches: singleStats.Matches},
			Sharded:   benchCountersJSON{Comparisons: shardedStats.Comparisons, Matches: shardedStats.Matches},
			Identical: identical,
			Recovery: benchShardRecoveryPortableJSON{
				Ops:                int64(c.Len()),
				SnapshotEvery:      durable.SnapshotEvery,
				ReplayedRecordsMax: replayedMax,
				Perf:               perfJSON(persistPerf),
			},
		},
		Timing: benchShardedTimingJSON{
			Workers:        workers,
			Single:         benchTimingJSON{WallNS: singleDur.Nanoseconds(), NSPerOp: nsPerOp(singleDur)},
			Sharded:        benchTimingJSON{WallNS: shardedDur.Nanoseconds(), NSPerOp: nsPerOp(shardedDur)},
			Speedup:        speedup,
			PersistWallNS:  persistDur.Nanoseconds(),
			PersistNSPerOp: nsPerOp(persistDur),
			RecoveryWallNS: recoveryDur.Nanoseconds(),
		},
	}
	return out.emit(&payload)
}

func phaseIndex(res *er.PipelineResult) map[string]time.Duration {
	m := make(map[string]time.Duration, len(res.Phases))
	for _, ph := range res.Phases {
		m[ph.Name] = ph.Duration
	}
	return m
}

// sameSameAs asserts two deployments answer identical SameAs sets for
// every description — a pairwise bit-equality check through the v2 query
// interface (handles are assigned identically across forms).
func sameSameAs(ctx context.Context, a, b er.Resolver, c *er.Collection) bool {
	for _, d := range c.All() {
		ra, errA := a.Query(ctx, er.Query{URI: d.URI})
		rb, errB := b.Query(ctx, er.Query{URI: d.URI})
		if (errA != nil) != (errB != nil) {
			return false
		}
		if errA != nil {
			continue
		}
		if ra.ID != rb.ID || !reflect.DeepEqual(ra.SameAs, rb.SameAs) {
			return false
		}
	}
	return true
}

// benchLatencyJSON is one endpoint's measured latency distribution.
type benchLatencyJSON struct {
	Requests int   `json:"requests"`
	P50NS    int64 `json:"p50_ns"`
	P99NS    int64 `json:"p99_ns"`
	MeanNS   int64 `json:"mean_ns"`
}

// benchServePortableJSON identifies the -serve scenario. Latency is
// inherently machine-dependent, so the portable half carries only the
// scenario identity and the loaded resolver's machine-independent sizes.
type benchServePortableJSON struct {
	Entities            int   `json:"entities"`
	Seed                int64 `json:"seed"`
	RequestsPerEndpoint int   `json:"requests_per_endpoint"`
	IngestRequests      int   `json:"ingest_requests"`
	IngestBatch         int   `json:"ingest_batch"`
	Comparisons         int64 `json:"comparisons"`
	Matches             int   `json:"matches"`
}

// benchServeTimingJSON is the -serve wall-clock section: per-endpoint
// latency distributions.
type benchServeTimingJSON struct {
	Workers   int                         `json:"workers"`
	Endpoints map[string]benchLatencyJSON `json:"endpoints"`
}

// benchServeJSON is the machine-readable -serve payload (BENCH_serve.json).
type benchServeJSON struct {
	Schema   int                    `json:"schema"`
	Name     string                 `json:"name"`
	Portable benchServePortableJSON `json:"portable"`
	Timing   benchServeTimingJSON   `json:"timing"`
}

// runServeBench loads a generated collection into an er.Open resolver,
// fronts it with the HTTP/JSON query service, and measures per-endpoint
// request latency (p50/p99) over the loopback.
func runServeBench(entities int, seed int64, workers int, out benchOutput) error {
	c, _, err := er.GenerateDirty(er.GenConfig{Seed: seed, Entities: entities, MaxDuplicates: 2})
	if err != nil {
		return err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ctx := context.Background()
	r, err := er.Open(ctx, er.Config{
		Kind: er.Dirty, Blocker: &er.TokenBlocking{},
		Matcher: &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: 0.5}, Workers: workers,
	})
	if err != nil {
		return err
	}
	defer r.Close()
	uris := make([]string, 0, c.Len())
	for _, d := range c.All() {
		if _, err := r.Insert(ctx, d); err != nil {
			return err
		}
		uris = append(uris, d.URI)
	}
	// The portable section describes the loaded resolver; read it before
	// the ingest probes mutate the state.
	loaded, err := r.Stats()
	if err != nil {
		return err
	}

	srv := serve.NewServer(r, serve.Options{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(lis) }()
	base := "http://" + lis.Addr().String()
	client := &http.Client{Timeout: 10 * time.Second}
	fmt.Printf("query service latency: %d descriptions, seed %d, %d requests/endpoint over loopback\n",
		c.Len(), seed, serveRequests)

	measure := func(path func(i int) string) (benchLatencyJSON, error) {
		// Warm-up: connection pool, first-hit allocations. The body must be
		// drained before Close or the connection is torn down instead of
		// returned to the pool, and the measured loop re-pays the dials the
		// warm-up was supposed to absorb.
		for i := 0; i < 32; i++ {
			resp, err := client.Get(base + path(i))
			if err != nil {
				return benchLatencyJSON{}, err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		lat := make([]time.Duration, serveRequests)
		for i := range lat {
			t0 := time.Now()
			resp, err := client.Get(base + path(i))
			if err != nil {
				return benchLatencyJSON{}, err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			lat[i] = time.Since(t0)
			if resp.StatusCode != http.StatusOK {
				return benchLatencyJSON{}, fmt.Errorf("%s answered %d", path(i), resp.StatusCode)
			}
		}
		return summarizeLatency(lat), nil
	}

	uri := func(i int) string { return url.QueryEscape(uris[i%len(uris)]) }
	endpoints := map[string]func(i int) string{
		"lookup":  func(i int) string { return "/v1/lookup?uri=" + uri(i) },
		"same-as": func(i int) string { return "/v1/same-as?uri=" + uri(i) },
		"cluster": func(i int) string { return "/v1/cluster?uri=" + uri(i) },
		"stats":   func(i int) string { return "/v1/stats" },
	}
	results := map[string]benchLatencyJSON{}
	fmt.Printf("\n%-10s %10s %10s %10s\n", "endpoint", "p50", "p99", "mean")
	for _, name := range []string{"lookup", "same-as", "cluster", "stats"} {
		m, err := measure(endpoints[name])
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		results[name] = m
		fmt.Printf("%-10s %10v %10v %10v\n", name,
			time.Duration(m.P50NS).Round(time.Microsecond),
			time.Duration(m.P99NS).Round(time.Microsecond),
			time.Duration(m.MeanNS).Round(time.Microsecond))
	}

	// Bulk-ingest latency through POST /v1/ops: the same probe stream one
	// operation per request vs. ingestBatch operations per request. Every
	// probe description is deleted again (per-op: by the next request;
	// batched: inside the same batch), so the resolver keeps the size the
	// query endpoints above were measured at.
	measurePost := func(n int, body func(i int) string) (benchLatencyJSON, error) {
		lat := make([]time.Duration, n)
		for i := range lat {
			b := body(i)
			t0 := time.Now()
			resp, err := client.Post(base+"/v1/ops", "application/json", strings.NewReader(b))
			if err != nil {
				return benchLatencyJSON{}, err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			lat[i] = time.Since(t0)
			if resp.StatusCode != http.StatusOK {
				return benchLatencyJSON{}, fmt.Errorf("/v1/ops answered %d", resp.StatusCode)
			}
		}
		return summarizeLatency(lat), nil
	}
	insertOp := func(uri string) string {
		return fmt.Sprintf(`{"op":"insert","uri":%q,"attrs":[{"name":"name","value":"ingest probe %s"}]}`, uri, uri)
	}
	perOp, err := measurePost(ingestRequests, func(i int) string {
		if i%2 == 1 {
			return fmt.Sprintf(`{"ops":[{"op":"delete","uri":"urn:ingest-one-%d"}]}`, i-1)
		}
		return `{"ops":[` + insertOp(fmt.Sprintf("urn:ingest-one-%d", i)) + `]}`
	})
	if err != nil {
		return fmt.Errorf("ingest-per-op: %w", err)
	}
	batched, err := measurePost(ingestRequests/4, func(i int) string {
		ops := make([]string, 0, ingestBatch)
		for j := 0; j < ingestBatch/2; j++ {
			ops = append(ops, insertOp(fmt.Sprintf("urn:ingest-b-%d-%d", i, j)))
		}
		for j := 0; j < ingestBatch/2; j++ {
			ops = append(ops, fmt.Sprintf(`{"op":"delete","uri":"urn:ingest-b-%d-%d"}`, i, j))
		}
		return `{"ops":[` + strings.Join(ops, ",") + `]}`
	})
	if err != nil {
		return fmt.Errorf("ingest-batch: %w", err)
	}
	results["ingest-per-op"] = perOp
	results["ingest-batch"] = batched
	fmt.Printf("\n%-14s %10s %10s %10s %12s\n", "ingest", "p50", "p99", "mean", "ns/op")
	for _, row := range []struct {
		name string
		m    benchLatencyJSON
		per  int
	}{{"per-op", perOp, 1}, {fmt.Sprintf("batch=%d", ingestBatch), batched, ingestBatch}} {
		fmt.Printf("%-14s %10v %10v %10v %12d\n", row.name,
			time.Duration(row.m.P50NS).Round(time.Microsecond),
			time.Duration(row.m.P99NS).Round(time.Microsecond),
			time.Duration(row.m.MeanNS).Round(time.Microsecond),
			row.m.MeanNS/int64(row.per))
	}

	dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		return err
	}
	if err := <-served; err != nil {
		return err
	}

	if out.jsonPath == "" && out.baseline == "" {
		return nil
	}
	payload := benchServeJSON{
		Schema: benchSchema,
		Name:   "serve",
		Portable: benchServePortableJSON{
			Entities:            c.Len(),
			Seed:                seed,
			RequestsPerEndpoint: serveRequests,
			IngestRequests:      ingestRequests,
			IngestBatch:         ingestBatch,
			Comparisons:         loaded.Comparisons,
			Matches:             loaded.Matches,
		},
		Timing: benchServeTimingJSON{Workers: workers, Endpoints: results},
	}
	return out.emit(&payload)
}

// serveRequests is the measured request count per endpoint for -serve;
// ingestRequests and ingestBatch shape the bulk-ingest legs (the batched
// leg sends ingestRequests/4 requests of ingestBatch ops each).
const (
	serveRequests  = 800
	ingestRequests = 200
	ingestBatch    = 32
)

// summarizeLatency renders a measured latency sample as its distribution.
func summarizeLatency(lat []time.Duration) benchLatencyJSON {
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	var sum time.Duration
	for _, l := range lat {
		sum += l
	}
	return benchLatencyJSON{
		Requests: len(lat),
		P50NS:    lat[len(lat)/2].Nanoseconds(),
		P99NS:    lat[len(lat)*99/100].Nanoseconds(),
		MeanNS:   (sum / time.Duration(len(lat))).Nanoseconds(),
	}
}

func sameMatches(a, b *er.Matches) bool {
	if a.Len() != b.Len() {
		return false
	}
	same := true
	a.Each(func(p er.Pair) bool {
		same = b.Contains(p.A, p.B)
		return same
	})
	return same
}

// burstySizes are the -bursty ingest batch sizes; burstyShards is the
// networked leg's shard count. Batch size 1 is the per-op reference the
// amortization ratios are taken against.
var burstySizes = []int{1, 16, 64, 256}

const (
	burstyShards = 2
	// burstyAmortizationFloor is the minimum batch=64 amortization (journal
	// appends and wire round trips saved vs. per-op) the run asserts; a
	// collapse below it means the batched path stopped batching.
	burstyAmortizationFloor = 8.0
)

// benchBurstyPortableJSON identifies the -bursty scenario and carries its
// machine-independent results: the resolved counters (identical at every
// batch size — asserted) and each leg's per-batch-size perf counters.
type benchBurstyPortableJSON struct {
	Entities  int                      `json:"entities"`
	Seed      int64                    `json:"seed"`
	Shards    int                      `json:"shards"`
	Ops       int                      `json:"ops"`
	Counters  benchCountersJSON        `json:"counters"`
	Identical bool                     `json:"identical"`
	Durable   map[string]benchPerfJSON `json:"durable"`
	Networked map[string]benchPerfJSON `json:"networked"`
	// The asserted ratios: per-op cost over batch=64 cost.
	AppendAmortization64    float64 `json:"append_amortization_64"`
	RoundTripAmortization64 float64 `json:"round_trip_amortization_64"`
}

// benchBurstyTimingJSON is the -bursty wall-clock section.
type benchBurstyTimingJSON struct {
	Workers   int                        `json:"workers"`
	Durable   map[string]benchTimingJSON `json:"durable"`
	Networked map[string]benchTimingJSON `json:"networked"`
}

// benchBurstyJSON is the machine-readable -bursty payload
// (BENCH_bursty.json).
type benchBurstyJSON struct {
	Schema   int                     `json:"schema"`
	Name     string                  `json:"name"`
	Portable benchBurstyPortableJSON `json:"portable"`
	Timing   benchBurstyTimingJSON   `json:"timing"`
}

// runBurstyIngest replays one synthetic insert stream through the durable
// single-node resolver and the networked coordinator, once per batch size,
// chunked through the amortized ApplyBatch path. Every run must resolve to
// the identical state; what changes is the amortized cost — journal
// appends on the durable leg, wire round trips on the networked leg — and
// the batch=64 amortization over per-op must hold the >= 8x floor.
func runBurstyIngest(entities int, seed int64, workers int, out benchOutput) error {
	c, _, err := er.GenerateDirty(er.GenConfig{Seed: seed, Entities: entities, MaxDuplicates: 2})
	if err != nil {
		return err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ops := make([]er.StreamOp, 0, c.Len())
	for _, d := range c.All() {
		ops = append(ops, er.StreamOp{Kind: er.StreamInsert, URI: d.URI, Source: d.Source, Attrs: d.Attrs})
	}
	ctx := context.Background()
	matcher := func() *er.Matcher { return &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: 0.5} }
	fmt.Printf("bursty ingestion: %d insert ops, seed %d, batch sizes %v, %d workers, %d shards networked\n",
		len(ops), seed, burstySizes, workers, burstyShards)

	apply := func(r er.Resolver, size int) (time.Duration, error) {
		t0 := time.Now()
		for at := 0; at < len(ops); at += size {
			if err := r.ApplyBatch(ctx, ops[at:min(at+size, len(ops))]); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}

	runDurable := func(size int) (er.StreamingStats, er.StreamingPerf, time.Duration, error) {
		walDir, err := os.MkdirTemp("", "erbench-bursty-wal-")
		if err != nil {
			return er.StreamingStats{}, er.StreamingPerf{}, 0, err
		}
		defer os.RemoveAll(walDir)
		r, err := er.Open(ctx, er.Config{
			Kind: er.Dirty, Blocker: &er.TokenBlocking{}, Matcher: matcher(), Workers: workers,
			Dir: walDir, Durable: er.StreamingDurable{SnapshotEvery: entities / 4, NoSync: true},
		})
		if err != nil {
			return er.StreamingStats{}, er.StreamingPerf{}, 0, err
		}
		defer r.Close()
		wall, err := apply(r, size)
		if err != nil {
			return er.StreamingStats{}, er.StreamingPerf{}, 0, err
		}
		st, err := r.Stats()
		if err != nil {
			return er.StreamingStats{}, er.StreamingPerf{}, 0, err
		}
		return st, r.(er.PerfReporter).Perf(), wall, nil
	}

	runNetworked := func(size int) (er.StreamingStats, er.StreamingPerf, time.Duration, error) {
		fail := func(err error) (er.StreamingStats, er.StreamingPerf, time.Duration, error) {
			return er.StreamingStats{}, er.StreamingPerf{}, 0, err
		}
		shardCfg := er.Config{
			Kind: er.Dirty, Blocker: &er.TokenBlocking{}, Matcher: matcher(), Workers: workers,
			Shards: burstyShards,
		}
		var servers []*er.ShardServer
		defer func() {
			for _, s := range servers {
				s.Close()
			}
		}()
		addrs := make([]string, burstyShards)
		for i := range addrs {
			srv, err := er.NewShardServer("", shardCfg, i)
			if err != nil {
				return fail(err)
			}
			servers = append(servers, srv)
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return fail(err)
			}
			go srv.Serve(lis)
			addrs[i] = lis.Addr().String()
		}
		coDir, err := os.MkdirTemp("", "erbench-bursty-co-")
		if err != nil {
			return fail(err)
		}
		defer os.RemoveAll(coDir)
		coCfg := shardCfg
		coCfg.Shards = 0
		coCfg.Addrs = addrs
		coCfg.Dir = coDir
		co, err := er.Open(ctx, coCfg)
		if err != nil {
			return fail(err)
		}
		defer co.Close()
		wall, err := apply(co, size)
		if err != nil {
			return fail(err)
		}
		st, err := co.Stats()
		if err != nil {
			return fail(err)
		}
		return st, co.(er.PerfReporter).Perf(), wall, nil
	}

	key := func(size int) string { return fmt.Sprintf("b%d", size) }
	nsPerOp := func(d time.Duration) int64 { return d.Nanoseconds() / int64(len(ops)) }
	var want er.StreamingStats
	identical := true
	legs := []struct {
		name string
		run  func(int) (er.StreamingStats, er.StreamingPerf, time.Duration, error)
		cost func(benchPerfJSON) int64
		unit string
	}{
		{"durable", runDurable, func(p benchPerfJSON) int64 { return p.JournalAppends }, "journal appends"},
		{"networked", runNetworked, func(p benchPerfJSON) int64 { return p.TransportRoundTrips }, "round trips"},
	}
	perf := map[string]map[string]benchPerfJSON{}
	timing := map[string]map[string]benchTimingJSON{}
	for _, leg := range legs {
		perf[leg.name] = map[string]benchPerfJSON{}
		timing[leg.name] = map[string]benchTimingJSON{}
		fmt.Printf("\n%-12s %12s %10s %16s %14s\n", leg.name, "wall", "ops/sec", leg.unit, "amortization")
		for _, size := range burstySizes {
			st, p, wall, err := leg.run(size)
			if err != nil {
				return fmt.Errorf("%s batch=%d: %w", leg.name, size, err)
			}
			if want == (er.StreamingStats{}) {
				want = st
			} else if st != want {
				identical = false
			}
			pj := perfJSON(p)
			perf[leg.name][key(size)] = pj
			timing[leg.name][key(size)] = benchTimingJSON{WallNS: wall.Nanoseconds(), NSPerOp: nsPerOp(wall)}
			ratio := float64(leg.cost(perf[leg.name][key(1)])) / float64(leg.cost(pj))
			fmt.Printf("batch=%-6d %12v %10.0f %16d %13.1fx\n", size, wall.Round(time.Microsecond),
				float64(len(ops))/wall.Seconds(), leg.cost(pj), ratio)
		}
	}
	if !identical {
		return fmt.Errorf("batched replays diverged: the resolved state must be identical at every batch size")
	}
	appendRatio := float64(perf["durable"][key(1)].JournalAppends) / float64(perf["durable"][key(64)].JournalAppends)
	rtRatio := float64(perf["networked"][key(1)].TransportRoundTrips) / float64(perf["networked"][key(64)].TransportRoundTrips)
	fmt.Printf("\nidentical=true append_amortization_64=%.1fx round_trip_amortization_64=%.1fx\n", appendRatio, rtRatio)
	if appendRatio < burstyAmortizationFloor || rtRatio < burstyAmortizationFloor {
		return fmt.Errorf("batch=64 amortization collapsed: journal appends %.1fx, round trips %.1fx (floor %.0fx)",
			appendRatio, rtRatio, burstyAmortizationFloor)
	}

	if out.jsonPath == "" && out.baseline == "" {
		return nil
	}
	payload := benchBurstyJSON{
		Schema: benchSchema,
		Name:   "bursty-ingest",
		Portable: benchBurstyPortableJSON{
			Entities:                c.Len(),
			Seed:                    seed,
			Shards:                  burstyShards,
			Ops:                     len(ops),
			Counters:                benchCountersJSON{Comparisons: want.Comparisons, Matches: want.Matches},
			Identical:               identical,
			Durable:                 perf["durable"],
			Networked:               perf["networked"],
			AppendAmortization64:    appendRatio,
			RoundTripAmortization64: rtRatio,
		},
		Timing: benchBurstyTimingJSON{
			Workers:   workers,
			Durable:   timing["durable"],
			Networked: timing["networked"],
		},
	}
	return out.emit(&payload)
}

// concurrentReaderFleets are the -concurrent reader counts; the scaling
// assertion compares the largest fleet's aggregate read QPS against the
// single reader's. concurrentReads is the fixed per-reader read count, so
// aggregate work grows with the fleet and QPS measures lock sharing, not
// queue depth.
var concurrentReaderFleets = []int{1, 4, 16}

const (
	concurrentReads = 2000
	// concurrentPreloadShare of the stream is applied before the measured
	// run; the writer streams the rest while the readers hammer.
	concurrentPreloadShare = 0.7
	// concurrentScalingFloor is the in-run assertion: on a multi-core host
	// the largest fleet's aggregate read throughput must be at least this
	// multiple of the single reader's.
	concurrentScalingFloor = 3.0
)

// benchConcurrentPortableJSON identifies the -concurrent scenario and
// carries its machine-independent results. Readers is the fleet list as a
// string so the identity check compares it exactly (the read-lock counters
// themselves are scheduling-dependent and deliberately absent — see
// er.StreamingPerf.ReadLocks).
type benchConcurrentPortableJSON struct {
	Entities       int               `json:"entities"`
	Seed           int64             `json:"seed"`
	PreloadOps     int               `json:"preload_ops"`
	LiveOps        int               `json:"live_ops"`
	ReadsPerReader int               `json:"reads_per_reader"`
	Readers        string            `json:"readers"`
	Counters       benchCountersJSON `json:"counters"`
	Identical      bool              `json:"identical"`
}

// benchConcurrentRunJSON is one reader fleet's measured run.
type benchConcurrentRunJSON struct {
	Readers     int     `json:"readers"`
	Reads       int     `json:"reads"`
	WallNS      int64   `json:"wall_ns"`
	QPS         float64 `json:"qps"`
	P50NS       int64   `json:"p50_ns"`
	P99NS       int64   `json:"p99_ns"`
	WriteOps    int     `json:"write_ops"`
	WriteWallNS int64   `json:"write_wall_ns"`
}

// benchConcurrentTimingJSON is the -concurrent wall-clock section.
type benchConcurrentTimingJSON struct {
	Workers         int                               `json:"workers"`
	GOMAXPROCS      int                               `json:"gomaxprocs"`
	Runs            map[string]benchConcurrentRunJSON `json:"runs"`
	Speedup         float64                           `json:"speedup"`
	ScalingAsserted bool                              `json:"scaling_asserted"`
}

// benchConcurrentJSON is the machine-readable -concurrent payload
// (BENCH_concurrent.json).
type benchConcurrentJSON struct {
	Schema   int                         `json:"schema"`
	Name     string                      `json:"name"`
	Portable benchConcurrentPortableJSON `json:"portable"`
	Timing   benchConcurrentTimingJSON   `json:"timing"`
}

// runConcurrentBench measures how the read path scales across cores: for
// each reader fleet it opens a fresh resolver, preloads 70% of the
// synthetic stream through the amortized batch path, then races a writer
// streaming the remaining ops against R reader goroutines each executing a
// fixed mixed read script (lookup/same-as via Query, plus stats).
// Aggregate read QPS across fleets is the scaling measure; every run must
// finish in the state a sequential replay produces (asserted — concurrent
// readers must not perturb resolution), and on a multi-core host the
// largest fleet must clear the >= 3x scaling floor over the single reader.
func runConcurrentBench(entities int, seed int64, workers int, out benchOutput) error {
	c, _, err := er.GenerateDirty(er.GenConfig{Seed: seed, Entities: entities, MaxDuplicates: 2})
	if err != nil {
		return err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	all := c.All()
	preN := int(float64(len(all)) * concurrentPreloadShare)
	liveN := len(all) - preN
	uris := make([]string, preN)
	for i, d := range all[:preN] {
		uris[i] = d.URI
	}
	ctx := context.Background()
	open := func() (er.Resolver, error) {
		return er.Open(ctx, er.Config{
			Kind: er.Dirty, Blocker: &er.TokenBlocking{},
			Matcher: &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: 0.5}, Workers: workers,
		})
	}
	preload := func(r er.Resolver) error {
		ops := make([]er.StreamOp, preN)
		for i, d := range all[:preN] {
			ops[i] = er.StreamOp{Kind: er.StreamInsert, URI: d.URI, Source: d.Source, Attrs: d.Attrs}
		}
		for at := 0; at < len(ops); at += 256 {
			if err := r.ApplyBatch(ctx, ops[at:min(at+256, len(ops))]); err != nil {
				return err
			}
		}
		return nil
	}
	fmt.Printf("concurrent read path: %d descriptions (%d preloaded, %d streamed live), seed %d, %d workers, GOMAXPROCS %d, %d reads/reader\n",
		len(all), preN, liveN, seed, workers, runtime.GOMAXPROCS(0), concurrentReads)

	// The sequential baseline every concurrent run must resolve to.
	ref, err := open()
	if err != nil {
		return err
	}
	if err := preload(ref); err != nil {
		ref.Close()
		return fmt.Errorf("baseline preload: %w", err)
	}
	for _, d := range all[preN:] {
		if _, err := ref.Insert(ctx, d); err != nil {
			ref.Close()
			return fmt.Errorf("baseline: %w", err)
		}
	}
	want, err := ref.Stats()
	ref.Close()
	if err != nil {
		return err
	}

	runFleet := func(readers int) (benchConcurrentRunJSON, error) {
		r, err := open()
		if err != nil {
			return benchConcurrentRunJSON{}, err
		}
		defer r.Close()
		if err := preload(r); err != nil {
			return benchConcurrentRunJSON{}, fmt.Errorf("preload: %w", err)
		}
		var (
			writeWall time.Duration
			writeErr  error
			writerWG  sync.WaitGroup
		)
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			t0 := time.Now()
			for _, d := range all[preN:] {
				if _, err := r.Insert(ctx, d); err != nil {
					writeErr = err
					return
				}
			}
			writeWall = time.Since(t0)
		}()
		lats := make([][]time.Duration, readers)
		errs := make([]error, readers)
		var readerWG sync.WaitGroup
		t0 := time.Now()
		for g := 0; g < readers; g++ {
			readerWG.Add(1)
			go func(g int) {
				defer readerWG.Done()
				lat := make([]time.Duration, concurrentReads)
				for i := range lat {
					s := time.Now()
					// 3:1 point reads (lookup + same-as through Query, over
					// the preloaded URIs, always live) to aggregate stats.
					var rerr error
					if i%4 == 3 {
						_, rerr = r.Stats()
					} else {
						_, rerr = r.Query(ctx, er.Query{URI: uris[(g*concurrentReads+i*7)%len(uris)]})
					}
					if rerr != nil {
						errs[g] = rerr
						return
					}
					lat[i] = time.Since(s)
				}
				lats[g] = lat
			}(g)
		}
		readerWG.Wait()
		readWall := time.Since(t0)
		writerWG.Wait()
		if writeErr != nil {
			return benchConcurrentRunJSON{}, fmt.Errorf("writer: %w", writeErr)
		}
		var flat []time.Duration
		for g := range lats {
			if errs[g] != nil {
				return benchConcurrentRunJSON{}, fmt.Errorf("reader %d: %w", g, errs[g])
			}
			flat = append(flat, lats[g]...)
		}
		st, err := r.Stats()
		if err != nil {
			return benchConcurrentRunJSON{}, err
		}
		if st != want {
			return benchConcurrentRunJSON{}, fmt.Errorf("%d-reader run resolved to %+v, sequential baseline %+v — concurrent reads perturbed resolution", readers, st, want)
		}
		sum := summarizeLatency(flat)
		return benchConcurrentRunJSON{
			Readers:     readers,
			Reads:       len(flat),
			WallNS:      readWall.Nanoseconds(),
			QPS:         float64(len(flat)) / readWall.Seconds(),
			P50NS:       sum.P50NS,
			P99NS:       sum.P99NS,
			WriteOps:    liveN,
			WriteWallNS: writeWall.Nanoseconds(),
		}, nil
	}

	runs := map[string]benchConcurrentRunJSON{}
	fmt.Printf("\n%-10s %10s %12s %10s %10s %12s\n", "readers", "reads", "read QPS", "p50", "p99", "write wall")
	fleetNames := make([]string, 0, len(concurrentReaderFleets))
	for _, n := range concurrentReaderFleets {
		run, err := runFleet(n)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("r%d", n)
		fleetNames = append(fleetNames, fmt.Sprint(n))
		runs[name] = run
		fmt.Printf("%-10d %10d %12.0f %10v %10v %12v\n", n, run.Reads, run.QPS,
			time.Duration(run.P50NS).Round(time.Microsecond),
			time.Duration(run.P99NS).Round(time.Microsecond),
			time.Duration(run.WriteWallNS).Round(time.Microsecond))
	}
	single := runs[fmt.Sprintf("r%d", concurrentReaderFleets[0])]
	largest := runs[fmt.Sprintf("r%d", concurrentReaderFleets[len(concurrentReaderFleets)-1])]
	speedup := largest.QPS / single.QPS
	multicore := runtime.GOMAXPROCS(0) >= 4
	fmt.Printf("\nidentical=true read_scaling=%.2fx (%d readers vs 1)\n", speedup, largest.Readers)
	if multicore {
		if speedup < concurrentScalingFloor {
			return fmt.Errorf("read throughput at %d readers is %.2fx the single reader (floor %.1fx on %d cores) — the read path stopped sharing",
				largest.Readers, speedup, concurrentScalingFloor, runtime.GOMAXPROCS(0))
		}
		fmt.Printf("scaling floor %.1fx asserted on %d cores\n", concurrentScalingFloor, runtime.GOMAXPROCS(0))
	} else {
		fmt.Printf("scaling floor not asserted: GOMAXPROCS %d < 4 (single-core hosts cannot show read parallelism)\n", runtime.GOMAXPROCS(0))
	}

	if out.jsonPath == "" && out.baseline == "" {
		return nil
	}
	payload := benchConcurrentJSON{
		Schema: benchSchema,
		Name:   "concurrent",
		Portable: benchConcurrentPortableJSON{
			Entities:       c.Len(),
			Seed:           seed,
			PreloadOps:     preN,
			LiveOps:        liveN,
			ReadsPerReader: concurrentReads,
			Readers:        strings.Join(fleetNames, ","),
			Counters:       benchCountersJSON{Comparisons: want.Comparisons, Matches: want.Matches},
			Identical:      true,
		},
		Timing: benchConcurrentTimingJSON{
			Workers:         workers,
			GOMAXPROCS:      runtime.GOMAXPROCS(0),
			Runs:            runs,
			Speedup:         speedup,
			ScalingAsserted: multicore,
		},
	}
	return out.emit(&payload)
}
