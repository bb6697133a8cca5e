package main

import (
	"math"
	"sort"
)

// metric declares one reported number. BENCHMARK.json repeats name, unit,
// better and (end to end) bound; the smoke test holds the two in step.
// Moves says which end-to-end metric a layer metric should move and on
// which workload — written down before anything is optimised against it.
type metric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
}

// endToEnd is what a user of the system sees, measured with tracing off.
// Every workload reports every metric; see README.md for what each means on
// the batch workloads, which have one "write" (files to matches) and one
// "read" (matches to clusters) per job.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "write_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "write_tail_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "read_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "read_tail_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "f1", Unit: "ratio", Better: "higher", Bound: 0.10},
	{Name: "recall", Unit: "ratio", Better: "higher", Bound: 0.05},
	{Name: "comparisons", Unit: "count", Better: "lower", Bound: 0.10},
}

// perLayer is reported by the traced run. Layer names are the repo's
// packages; a layer a workload does not enter reports 0.
var perLayer = []metric{
	{Name: "tabular.parse_s", Unit: "s", Better: "lower", Moves: "throughput_per_s (interlink), <= 5 % share"},
	{Name: "tabular.records_per_s", Unit: "1/s", Better: "higher", Moves: "throughput_per_s (interlink)"},
	{Name: "rdf.parse_s", Unit: "s", Better: "lower", Moves: "throughput_per_s (interlink-meta), <= 5 % share"},
	{Name: "rdf.records_per_s", Unit: "1/s", Better: "higher", Moves: "throughput_per_s (interlink-meta)"},
	{Name: "entity.load_s", Unit: "s", Better: "lower", Moves: "throughput_per_s (interlink, interlink-meta)"},
	{Name: "entity.load_alloc_mb", Unit: "MB", Better: "lower", Moves: "alloc_mb (interlink)"},

	{Name: "blocking.build_s", Unit: "s", Better: "lower", Moves: "throughput_per_s (both batch)"},
	{Name: "blocking.alloc_mb", Unit: "MB", Better: "lower", Moves: "alloc_mb (both batch)"},
	{Name: "blocking.blocks", Unit: "count", Better: "lower", Moves: "comparisons (all)"},
	{Name: "blocking.comparisons", Unit: "count", Better: "lower", Moves: "comparisons (all)"},
	{Name: "blocking.pc", Unit: "ratio", Better: "higher", Moves: "caps recall (all)"},
	{Name: "blocking.pq", Unit: "ratio", Better: "higher", Moves: "comparisons (all)"},
	{Name: "blocking.rr", Unit: "ratio", Better: "higher", Moves: "comparisons (all)"},

	{Name: "blockproc.clean_s", Unit: "s", Better: "lower", Moves: "throughput_per_s (both batch)"},
	{Name: "blockproc.blocks", Unit: "count", Better: "lower", Moves: "comparisons (both batch)"},
	{Name: "blockproc.comparisons", Unit: "count", Better: "lower", Moves: "comparisons (both batch)"},
	{Name: "blockproc.pc", Unit: "ratio", Better: "higher", Moves: "recall (both batch)"},
	{Name: "blockproc.pq", Unit: "ratio", Better: "higher", Moves: "comparisons (both batch)"},
	{Name: "blockproc.rr", Unit: "ratio", Better: "higher", Moves: "comparisons (both batch)"},

	{Name: "metablocking.restructure_s", Unit: "s", Better: "lower", Moves: "throughput_per_s (interlink-meta, large; interlink, none)"},
	{Name: "metablocking.alloc_mb", Unit: "MB", Better: "lower", Moves: "alloc_mb (interlink-meta)"},
	{Name: "metablocking.candidate_pairs", Unit: "count", Better: "lower", Moves: "read_p50_us (live-meta)"},
	{Name: "metablocking.kept_pairs", Unit: "count", Better: "lower", Moves: "comparisons (interlink-meta, live-meta)"},
	{Name: "metablocking.pc", Unit: "ratio", Better: "higher", Moves: "recall (interlink-meta)"},
	{Name: "metablocking.pq", Unit: "ratio", Better: "higher", Moves: "comparisons (interlink-meta)"},
	{Name: "metablocking.rr", Unit: "ratio", Better: "higher", Moves: "comparisons (interlink-meta)"},

	{Name: "matching.compare_s", Unit: "s", Better: "lower", Moves: "throughput_per_s (interlink, large; interlink-meta, about half)"},
	{Name: "matching.ns_per_comparison", Unit: "ns", Better: "lower", Moves: "throughput_per_s (batch); write_p50_us (live); read_p50_us (live-meta); not serve reads"},
	{Name: "matching.allocs_per_comparison", Unit: "count", Better: "lower", Moves: "alloc_mb (all)"},
	{Name: "matching.alloc_mb", Unit: "MB", Better: "lower", Moves: "alloc_mb (both batch)"},
	{Name: "matching.matches", Unit: "count", Better: "higher", Moves: "f1, recall (all)"},
	{Name: "matching.recall_on_candidates", Unit: "ratio", Better: "higher", Moves: "recall (all): recall / last blocking stage's pc"},

	{Name: "graph.cluster_s", Unit: "s", Better: "lower", Moves: "read_p50_us (both batch); incremental.cluster_p50_us"},
	{Name: "graph.clusters", Unit: "count", Better: "higher", Moves: "diagnostic"},

	{Name: "pipeline.seq_wall_s", Unit: "s", Better: "lower", Moves: "single-thread baseline of throughput_per_s (both batch)"},
	{Name: "pipeline.parallel_ratio", Unit: "ratio", Better: "higher", Moves: "throughput_per_s (both batch)"},

	{Name: "incremental.insert_p50_us", Unit: "us", Better: "lower", Moves: "write_p50_us (live, live-meta)"},
	{Name: "incremental.update_p50_us", Unit: "us", Better: "lower", Moves: "write_tail_us (live, live-meta)"},
	{Name: "incremental.delete_p50_us", Unit: "us", Better: "lower", Moves: "write_p50_us (live, live-meta)"},
	{Name: "incremental.lookup_p50_us", Unit: "us", Better: "lower", Moves: "read_p50_us (live; live-meta: reconcile)"},
	{Name: "incremental.cluster_p50_us", Unit: "us", Better: "lower", Moves: "read_tail_us (live)"},
	{Name: "incremental.comparisons_per_insert", Unit: "count", Better: "lower", Moves: "write_p50_us (live)"},
	{Name: "incremental.reconciles", Unit: "count", Better: "lower", Moves: "read_p50_us (live-meta)"},
	{Name: "incremental.reconcile_examined", Unit: "count", Better: "lower", Moves: "read_p50_us (live-meta)"},
	{Name: "incremental.reconcile_evaluated", Unit: "count", Better: "lower", Moves: "read_p50_us (live-meta)"},
	{Name: "incremental.read_locks", Unit: "count", Better: "lower", Moves: "read_p50_us (live, live-meta)"},
	{Name: "incremental.shared_reads", Unit: "count", Better: "higher", Moves: "read_p50_us (live, live-meta)"},
	{Name: "incremental.apply_batch64_p50_us", Unit: "us", Better: "lower", Moves: "write_p50_us (serve): innermost level"},

	{Name: "wal.journal_appends", Unit: "count", Better: "lower", Moves: "write_p50_us (live, serve); none on live-meta and batch"},
	{Name: "wal.bytes_written", Unit: "B", Better: "lower", Moves: "write_p50_us (live, serve)"},
	{Name: "wal.bytes_per_user_byte", Unit: "ratio", Better: "lower", Moves: "write_p50_us (live, serve)"},
	{Name: "wal.full_snapshots", Unit: "count", Better: "lower", Moves: "write_tail_us (live)"},
	{Name: "wal.delta_snapshots", Unit: "count", Better: "lower", Moves: "write_tail_us (live)"},
	{Name: "wal.append_sync_p50_us", Unit: "us", Better: "lower", Moves: "write_p50_us (live, serve)"},
	{Name: "wal.recovery_s", Unit: "s", Better: "lower", Moves: "diagnostic (live)"},
	{Name: "wal.replayed_records", Unit: "count", Better: "lower", Moves: "wal.recovery_s (live)"},

	{Name: "sharded.fan_outs", Unit: "count", Better: "lower", Moves: "write_p50_us (serve)"},
	{Name: "sharded.apply_batch64_p50_us", Unit: "us", Better: "lower", Moves: "write_p50_us (serve)"},
	{Name: "sharded.self_us_per_batch", Unit: "us", Better: "lower", Moves: "write_p50_us (serve)"},

	{Name: "transport.round_trips", Unit: "count", Better: "lower", Moves: "write_p50_us (serve)"},
	{Name: "transport.round_trips_per_batch", Unit: "count", Better: "lower", Moves: "write_p50_us (serve)"},
	{Name: "transport.full_ops", Unit: "count", Better: "lower", Moves: "write_p50_us (serve)"},
	{Name: "transport.advance_ops", Unit: "count", Better: "lower", Moves: "write_p50_us (serve)"},
	{Name: "transport.apply_batch64_p50_us", Unit: "us", Better: "lower", Moves: "write_p50_us, serve.lookup_p99_us (serve)"},
	{Name: "transport.self_us_per_batch", Unit: "us", Better: "lower", Moves: "write_p50_us (serve)"},

	{Name: "serve.post_ops_p50_us", Unit: "us", Better: "lower", Moves: "write_p50_us (serve)"},
	{Name: "serve.lookup_p50_us", Unit: "us", Better: "lower", Moves: "read_p50_us (serve)"},
	{Name: "serve.lookup_p99_us", Unit: "us", Better: "lower", Moves: "diagnostic (serve): lookups from due time, queued behind each 64-op apply; tracks transport.apply_batch64_p50_us"},
	{Name: "serve.http_self_us", Unit: "us", Better: "lower", Moves: "read_p50_us (serve)"},
	{Name: "serve.requests", Unit: "count", Better: "higher", Moves: "diagnostic (serve)"},
	{Name: "serve.refused", Unit: "count", Better: "lower", Moves: "failed (serve)"},

	{Name: "process.peak_heap_mb", Unit: "MB", Better: "lower", Moves: "diagnostic; the memory target on interlink"},
	{Name: "process.gc_pause_ms", Unit: "ms", Better: "lower", Moves: "write_tail_us, read_tail_us (live, serve)"},
	{Name: "loadgen.max_late_ms", Unit: "ms", Better: "lower", Moves: "diagnostic: how late the open-loop generator ran (serve)"},
	{Name: "loadgen.write_samples", Unit: "count", Better: "higher", Moves: "sample count behind write_p50_us / write_tail_us"},
	{Name: "loadgen.read_samples", Unit: "count", Better: "higher", Moves: "sample count behind read_p50_us / read_tail_us"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower", Moves: "diagnostic: traced / untraced wall - 1 over the same timed region"},
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the mean of the middle pair for an even count, so that two
// rounds report their midpoint and not the smaller one.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
