package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"entityres/er"
	"entityres/internal/core"
	"entityres/internal/experiments"
)

// TestRunStreamingMeta drives the -streaming-meta comparison end to end on
// a small stream — including the durable persist/recovery leg, the
// machine-readable -json output and the -baseline regression gate — plus
// the stream-safety flag validation.
func TestRunStreamingMeta(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "BENCH_streaming.json")
	if err := runStreamingMeta(120, 7, 2, "CBS", "WEP", benchOutput{jsonPath: jsonPath}); err != nil {
		t.Fatalf("runStreamingMeta: %v", err)
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("-json wrote nothing: %v", err)
	}
	var out benchJSON
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("-json output is not valid JSON: %v", err)
	}
	if out.Schema != benchSchema || out.Name != "streaming" || out.Portable.Entities == 0 {
		t.Fatalf("-json header malformed: %+v", out)
	}
	if out.Timing.Frontier.NSPerOp <= 0 || out.Timing.Pruned.NSPerOp <= 0 {
		t.Fatalf("-json ns/op not measured: %+v", out)
	}
	p := out.Portable
	if p.Frontier.Comparisons <= p.Pruned.Comparisons && p.ComparisonsSavedRatio > 0 {
		t.Fatalf("-json comparisons-saved inconsistent: %+v", out)
	}
	if p.Recovery.Ops != int64(p.Entities) || out.Timing.RecoveryWallNS <= 0 {
		t.Fatalf("-json recovery leg not measured: %+v", out)
	}
	if p.Recovery.SnapshotSegment == 0 {
		t.Fatalf("-json recovery did not anchor on a snapshot: %+v", out)
	}
	if p.PrunedPerf.Reconciles <= 0 || p.PrunedPerf.ReconcileExamined <= 0 {
		t.Fatalf("-json reconcile counters unmeasured: %+v", p.PrunedPerf)
	}
	if p.Recovery.Perf.FullSnapshots <= 0 {
		t.Fatalf("-json snapshot counters unmeasured: %+v", p.Recovery.Perf)
	}
	// The regression gate: an identical rerun matches its own baseline,
	// and a different scale is refused rather than diffed.
	if err := runStreamingMeta(120, 7, 2, "CBS", "WEP", benchOutput{baseline: jsonPath, tolerance: 0.01}); err != nil {
		t.Fatalf("identical rerun drifted from its own baseline: %v", err)
	}
	if err := runStreamingMeta(100, 7, 2, "CBS", "WEP", benchOutput{baseline: jsonPath, tolerance: 0.01}); err == nil {
		t.Fatal("baseline gate diffed a different scale instead of refusing")
	}
	// Without -json the run still succeeds and writes nothing.
	if err := runStreamingMeta(120, 7, 2, "CBS", "WEP", benchOutput{}); err != nil {
		t.Fatalf("runStreamingMeta without json: %v", err)
	}
	if err := runStreamingMeta(120, 7, 0, "ARCS", "WEP", benchOutput{}); err == nil {
		t.Fatal("batch-only weight accepted")
	}
	if err := runStreamingMeta(120, 7, 0, "CBS", "CEP", benchOutput{}); err == nil {
		t.Fatal("batch-only prune accepted")
	}
}

// TestDiffBaseline exercises the gate's decision table on synthetic
// payloads: schema refusal, scenario refusal, tolerated drift, flagged
// drift, and schema-shape divergence in either direction.
func TestDiffBaseline(t *testing.T) {
	write := func(s string) string {
		t.Helper()
		p := filepath.Join(t.TempDir(), "baseline.json")
		if err := os.WriteFile(p, []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	fresh := []byte(`{"schema":2,"name":"streaming","portable":{"entities":400,"seed":42,"frontier":{"comparisons":1000},"identical":true}}`)

	if err := diffBaseline(fresh, write(`{"schema":1,"name":"streaming","portable":{}}`), 0.01); err == nil {
		t.Fatal("schema 1 baseline accepted")
	}
	if err := diffBaseline(fresh, write(`{"schema":2,"name":"serve","portable":{}}`), 0.01); err == nil {
		t.Fatal("cross-benchmark baseline accepted")
	}
	if err := diffBaseline(fresh, write(`{"schema":2,"name":"streaming","portable":{"entities":1500,"seed":42,"frontier":{"comparisons":1000},"identical":true}}`), 0.01); err == nil {
		t.Fatal("scale mismatch diffed instead of refused")
	}
	// 0.5% drift passes a 1% tolerance and fails a 0.1% one.
	near := write(`{"schema":2,"name":"streaming","portable":{"entities":400,"seed":42,"frontier":{"comparisons":1005},"identical":true}}`)
	if err := diffBaseline(fresh, near, 0.01); err != nil {
		t.Fatalf("0.5%% drift rejected at 1%% tolerance: %v", err)
	}
	if err := diffBaseline(fresh, near, 0.001); err == nil {
		t.Fatal("0.5% drift passed a 0.1% tolerance")
	}
	// Non-numeric portable fields compare exactly.
	if err := diffBaseline(fresh, write(`{"schema":2,"name":"streaming","portable":{"entities":400,"seed":42,"frontier":{"comparisons":1000},"identical":false}}`), 0.01); err == nil {
		t.Fatal("boolean divergence tolerated")
	}
	// Field-set drift in either direction demands regeneration.
	if err := diffBaseline(fresh, write(`{"schema":2,"name":"streaming","portable":{"entities":400,"seed":42,"frontier":{"comparisons":1000},"identical":true,"extinct":1}}`), 0.01); err == nil {
		t.Fatal("baseline-only field ignored")
	}
	if err := diffBaseline(fresh, write(`{"schema":2,"name":"streaming","portable":{"entities":400,"seed":42,"identical":true}}`), 0.01); err == nil {
		t.Fatal("fresh-only field ignored")
	}
}

// TestResultHelpers covers the comparison plumbing shared by the
// benchmark modes.
func TestResultHelpers(t *testing.T) {
	a, b := er.NewMatches(), er.NewMatches()
	a.Add(1, 2)
	b.Add(2, 1)
	if !sameMatches(a, b) {
		t.Fatal("equal match sets reported different")
	}
	b.Add(3, 4)
	if sameMatches(a, b) {
		t.Fatal("different lengths reported same")
	}
	a.Add(5, 6)
	if sameMatches(a, b) {
		t.Fatal("disjoint same-length sets reported same")
	}
	res := &er.PipelineResult{Phases: []core.PhaseStat{{Name: "blocking", Duration: time.Second}}}
	if idx := phaseIndex(res); idx["blocking"] != time.Second {
		t.Fatalf("phaseIndex = %v", idx)
	}
}

// TestRunStreamingShards drives the sharded-streaming benchmark mode end
// to end at a tiny scale, including the BENCH_sharded.json output.
func TestRunStreamingShards(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "BENCH_sharded.json")
	if err := runStreamingShards(120, 7, 2, 3, benchOutput{jsonPath: jsonPath}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var out benchShardedJSON
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	p := out.Portable
	if out.Schema != benchSchema || out.Name != "sharded-streaming" || p.Shards != 3 || !p.Identical {
		t.Fatalf("benchmark payload = %+v", out)
	}
	if p.Single.Comparisons != p.Sharded.Comparisons || p.Single.Matches != p.Sharded.Matches {
		t.Fatalf("benchmark payload not bit-identical: %+v", out)
	}
	if out.Timing.PersistWallNS <= 0 || out.Timing.RecoveryWallNS <= 0 {
		t.Fatalf("recovery leg unmeasured: %+v", out.Timing)
	}
	if p.Recovery.Perf.FullSnapshots <= 0 {
		t.Fatalf("coordinator snapshot counters unmeasured: %+v", p.Recovery.Perf)
	}
	// The gate holds across the sharded mode too: rerun vs own baseline.
	if err := runStreamingShards(120, 7, 2, 3, benchOutput{baseline: jsonPath, tolerance: 0.01}); err != nil {
		t.Fatalf("identical sharded rerun drifted from its own baseline: %v", err)
	}
	if err := runStreamingShards(120, 7, 2, 2, benchOutput{baseline: jsonPath, tolerance: 0.01}); err == nil {
		t.Fatal("baseline gate diffed a different shard count instead of refusing")
	}
}

// TestRunServeBench measures the HTTP query service over the loopback at a
// tiny scale and checks the BENCH_serve.json payload shape.
func TestRunServeBench(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "BENCH_serve.json")
	if err := runServeBench(60, 7, 2, benchOutput{jsonPath: jsonPath}); err != nil {
		t.Fatalf("runServeBench: %v", err)
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var out benchServeJSON
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Schema != benchSchema || out.Name != "serve" || out.Portable.Entities == 0 {
		t.Fatalf("serve payload = %+v", out)
	}
	if out.Portable.RequestsPerEndpoint != serveRequests || out.Portable.Comparisons <= 0 {
		t.Fatalf("serve portable section malformed: %+v", out.Portable)
	}
	if len(out.Timing.Endpoints) != 6 {
		t.Fatalf("serve payload = %+v", out)
	}
	wantRequests := map[string]int{
		"lookup": serveRequests, "same-as": serveRequests, "cluster": serveRequests, "stats": serveRequests,
		"ingest-per-op": ingestRequests, "ingest-batch": ingestRequests / 4,
	}
	for ep, lat := range out.Timing.Endpoints {
		if lat.Requests != wantRequests[ep] || lat.P50NS <= 0 || lat.P99NS < lat.P50NS {
			t.Fatalf("endpoint %s latency malformed: %+v", ep, lat)
		}
	}
	if out.Portable.IngestRequests != ingestRequests || out.Portable.IngestBatch != ingestBatch {
		t.Fatalf("serve portable ingest identity malformed: %+v", out.Portable)
	}
}

// TestRunBurstyIngest drives the -bursty amortization mode end to end at a
// tiny scale: the mode itself asserts every batch size resolves identical
// state and that the batch=64 amortization holds the floor; the test then
// checks the BENCH_bursty.json payload shape.
func TestRunBurstyIngest(t *testing.T) {
	if testing.Short() {
		t.Skip("bursty replay is seconds long")
	}
	jsonPath := filepath.Join(t.TempDir(), "BENCH_bursty.json")
	if err := runBurstyIngest(60, 7, 2, benchOutput{jsonPath: jsonPath}); err != nil {
		t.Fatalf("runBurstyIngest: %v", err)
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var out benchBurstyJSON
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Schema != benchSchema || out.Name != "bursty-ingest" || !out.Portable.Identical {
		t.Fatalf("bursty payload = %+v", out)
	}
	if out.Portable.Shards != burstyShards || out.Portable.Ops == 0 || out.Portable.Counters.Matches == 0 {
		t.Fatalf("bursty portable section malformed: %+v", out.Portable)
	}
	for _, leg := range []map[string]benchPerfJSON{out.Portable.Durable, out.Portable.Networked} {
		if len(leg) != len(burstySizes) {
			t.Fatalf("bursty legs incomplete: %+v", out.Portable)
		}
	}
	ops := int64(out.Portable.Ops)
	if got := out.Portable.Durable["b1"].JournalAppends; got != ops {
		t.Fatalf("per-op durable leg made %d journal appends for %d ops", got, ops)
	}
	if got := out.Portable.Networked["b1"].TransportRoundTrips; got != ops*burstyShards {
		t.Fatalf("per-op networked leg spent %d round trips for %d ops on %d shards", got, ops, burstyShards)
	}
	if out.Portable.AppendAmortization64 < burstyAmortizationFloor ||
		out.Portable.RoundTripAmortization64 < burstyAmortizationFloor {
		t.Fatalf("amortization below floor: %+v", out.Portable)
	}
	if out.Timing.Durable["b64"].NSPerOp <= 0 || out.Timing.Networked["b64"].NSPerOp <= 0 {
		t.Fatalf("bursty timing not measured: %+v", out.Timing)
	}
}

// TestRunParallelComparison drives the batch-pipeline comparison mode once
// at the small scale; the mode itself asserts sequential/parallel match
// sets are identical and fails if they diverge.
func TestRunParallelComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("batch comparison pass is seconds long")
	}
	if err := runParallelComparison(experiments.Small, 7, 2); err != nil {
		t.Fatalf("runParallelComparison: %v", err)
	}
}

// TestSameSameAs covers the pairwise query-equality check, including the
// divergence branches a healthy run never takes.
func TestSameSameAs(t *testing.T) {
	ctx := context.Background()
	open := func() er.Resolver {
		r, err := er.Open(ctx, er.Config{
			Kind:    er.Dirty,
			Blocker: &er.TokenBlocking{},
			Matcher: &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: 0.5},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		return r
	}
	a, b := open(), open()
	c := er.NewCollection(er.Dirty)
	for _, uri := range []string{"u:x", "u:y"} {
		d := &er.Description{URI: uri, Attrs: []er.Attribute{{Name: "name", Value: "alice smith"}}}
		c.MustAdd(d.Clone())
		for _, r := range []er.Resolver{a, b} {
			if _, err := r.Insert(ctx, d.Clone()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !sameSameAs(ctx, a, b, c) {
		t.Fatal("identical deployments reported different")
	}
	// Delete u:y from b only: one side errors the query, the other answers.
	res, err := b.Query(ctx, er.Query{URI: "u:y"})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Delete(ctx, res.ID); err != nil {
		t.Fatal(err)
	}
	if sameSameAs(ctx, a, b, c) {
		t.Fatal("diverged deployments reported same")
	}
}

// TestRunConcurrentBench drives the -concurrent mode end to end on a small
// stream: every reader fleet runs against a live writer, the mode itself
// asserts each run resolved to the sequential baseline, and the payload
// carries the scaling evidence. The baseline gate round-trips on the
// portable counters (deterministic for a seed — latency and QPS live in
// the never-compared timing section).
func TestRunConcurrentBench(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "BENCH_concurrent.json")
	if err := runConcurrentBench(100, 7, 2, benchOutput{jsonPath: jsonPath}); err != nil {
		t.Fatalf("runConcurrentBench: %v", err)
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var out benchConcurrentJSON
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Schema != benchSchema || out.Name != "concurrent" || !out.Portable.Identical {
		t.Fatalf("concurrent payload = %+v", out)
	}
	p := out.Portable
	if p.Entities == 0 || p.PreloadOps == 0 || p.LiveOps == 0 || p.Counters.Matches == 0 {
		t.Fatalf("concurrent portable section malformed: %+v", p)
	}
	if p.ReadsPerReader != concurrentReads || p.Readers != "1,4,16" {
		t.Fatalf("concurrent scenario identity malformed: %+v", p)
	}
	if len(out.Timing.Runs) != len(concurrentReaderFleets) {
		t.Fatalf("concurrent runs incomplete: %+v", out.Timing)
	}
	for _, n := range concurrentReaderFleets {
		run := out.Timing.Runs[fmt.Sprintf("r%d", n)]
		if run.Readers != n || run.Reads != n*concurrentReads {
			t.Fatalf("fleet %d ran %d reads across %d readers: %+v", n, run.Reads, run.Readers, run)
		}
		if run.QPS <= 0 || run.P99NS < run.P50NS || run.WallNS <= 0 || run.WriteWallNS <= 0 {
			t.Fatalf("fleet %d timing unmeasured: %+v", n, run)
		}
	}
	if out.Timing.Speedup <= 0 || out.Timing.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Fatalf("scaling summary malformed: %+v", out.Timing)
	}
	if out.Timing.ScalingAsserted != (runtime.GOMAXPROCS(0) >= 4) {
		t.Fatalf("scaling_asserted = %v on %d cores", out.Timing.ScalingAsserted, runtime.GOMAXPROCS(0))
	}
	// The regression gate: an identical rerun matches its own baseline, and
	// a different scale is refused rather than diffed.
	if err := runConcurrentBench(100, 7, 2, benchOutput{baseline: jsonPath, tolerance: 0.01}); err != nil {
		t.Fatalf("identical rerun drifted from its own baseline: %v", err)
	}
	if err := runConcurrentBench(80, 7, 2, benchOutput{baseline: jsonPath, tolerance: 0.01}); err == nil {
		t.Fatal("baseline gate diffed a different scale instead of refusing")
	}
}

func TestRunIngestBench(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "BENCH_ingest.json")
	if err := runIngestBench(true, 7, 1, benchOutput{jsonPath: jsonPath}); err != nil {
		t.Fatalf("runIngestBench: %v", err)
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var out benchIngestJSON
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Schema != benchSchema || out.Name != "ingest" || !out.Portable.Identical {
		t.Fatalf("ingest payload = %+v", out)
	}
	p := out.Portable
	if p.Records == 0 || p.Entities != ingestEntitiesShort || p.TruthPairs == 0 ||
		p.Matches == 0 || p.Comparisons == 0 || p.Blocks == 0 {
		t.Fatalf("ingest portable section malformed: %+v", p)
	}
	if p.PurgeMax != ingestPurgeMax || p.VocabScale != 1 {
		t.Fatalf("ingest scenario identity malformed: %+v", p)
	}
	if len(p.MatchDigest) != 64 || len(p.BlockDigest) != 64 {
		t.Fatalf("canonical digests malformed: %q %q", p.MatchDigest, p.BlockDigest)
	}
	if p.Recall <= 0 || p.F1 <= 0 {
		t.Fatalf("quality unmeasured: %+v", p)
	}
	for name, leg := range map[string]benchIngestLegTimingJSON{
		"nt": out.Timing.NT, "csv": out.Timing.CSV, "jsonl": out.Timing.JSONL,
	} {
		if leg.Parse.WallNS <= 0 || leg.Load.WallNS <= 0 || leg.Resolve.WallNS <= 0 {
			t.Fatalf("%s leg unmeasured: %+v", name, leg)
		}
	}
	if out.Timing.GenerateWallNS <= 0 || out.Timing.PeakHeapBytes == 0 {
		t.Fatalf("ingest timing malformed: %+v", out.Timing)
	}
	// The regression gate: an identical rerun matches its own baseline, and
	// a different seed (different record count and digests) is refused.
	if err := runIngestBench(true, 7, 1, benchOutput{baseline: jsonPath, tolerance: 0.01}); err != nil {
		t.Fatalf("identical rerun drifted from its own baseline: %v", err)
	}
	if err := runIngestBench(true, 8, 1, benchOutput{baseline: jsonPath, tolerance: 0.01}); err == nil {
		t.Fatal("baseline gate diffed a different seed instead of refusing")
	}
}
