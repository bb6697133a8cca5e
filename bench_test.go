// Package entityres hosts the benchmark harness that regenerates every
// experiment table of the reproduction (the E1–E12 suite; see "Repository
// layout" in README.md): one benchmark per experiment, each reporting its
// headline metrics through testing.B.ReportMetric so `go test -bench=.
// -benchmem` reproduces the numbers. The experiment implementations live
// in internal/experiments and are shared with cmd/erbench.
package entityres

import (
	"sort"
	"strings"
	"testing"

	"entityres/internal/experiments"
)

const benchSeed = 42

// runExperiment executes one experiment per iteration and reports its
// headline metrics (from the final iteration). The experiments are the
// slow part of the tree, so short mode skips them: `go test -short -bench
// ./...` stays a fast compile-and-smoke pass.
func runExperiment(b *testing.B, run func(experiments.Scale, int64) (*experiments.Result, error)) {
	b.Helper()
	if testing.Short() {
		b.Skip("experiment benchmarks are skipped in short mode")
	}
	var last *experiments.Result
	for i := 0; i < b.N; i++ {
		res, err := run(experiments.Small, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	// Deterministic metric order keeps -bench output diffable.
	names := make([]string, 0, len(last.Metrics))
	for name := range last.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b.ReportMetric(last.Metrics[name], metricUnit(name))
	}
}

// metricUnit turns a human-readable metric label into a ReportMetric unit,
// which must not contain whitespace.
func metricUnit(name string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case ' ', '\t', '+':
			return '_'
		default:
			return r
		}
	}, name)
}

// BenchmarkE01BlockingMethods regenerates E1: PC/PQ/RR of the blocking
// family on heterogeneous clean-clean KBs (§II, [13], [21]).
func BenchmarkE01BlockingMethods(b *testing.B) {
	runExperiment(b, experiments.E1BlockingMethods)
}

// BenchmarkE02BlockPurging regenerates E2: block purging and filtering
// (§II, [20]).
func BenchmarkE02BlockPurging(b *testing.B) {
	runExperiment(b, experiments.E2BlockPurging)
}

// BenchmarkE03MetaBlocking regenerates E3: weighting × pruning of
// meta-blocking (§II, [22]).
func BenchmarkE03MetaBlocking(b *testing.B) {
	runExperiment(b, experiments.E3MetaBlocking)
}

// BenchmarkE04ParallelMetaBlocking regenerates E4: strong scaling of
// parallel meta-blocking (§II, [10], [11]).
func BenchmarkE04ParallelMetaBlocking(b *testing.B) {
	runExperiment(b, experiments.E4ParallelMetaBlocking)
}

// BenchmarkE05SimilarityJoin regenerates E5: PPJoin candidates vs
// threshold (§II, [5], [28]).
func BenchmarkE05SimilarityJoin(b *testing.B) {
	runExperiment(b, experiments.E5SimilarityJoin)
}

// BenchmarkE06MapReduceBlocking regenerates E6: MapReduce token blocking
// throughput (§II, [18]).
func BenchmarkE06MapReduceBlocking(b *testing.B) {
	runExperiment(b, experiments.E6MapReduceBlocking)
}

// BenchmarkE07RSwoosh regenerates E7: comparisons saved by merging-based
// resolution (§III, [2]).
func BenchmarkE07RSwoosh(b *testing.B) {
	runExperiment(b, experiments.E7RSwoosh)
}

// BenchmarkE08CollectiveER regenerates E8: collective vs attribute-only
// resolution (§III, [3]).
func BenchmarkE08CollectiveER(b *testing.B) {
	runExperiment(b, experiments.E8CollectiveER)
}

// BenchmarkE09IterativeBlocking regenerates E9: iterative blocking vs
// one-pass (§III, [27]).
func BenchmarkE09IterativeBlocking(b *testing.B) {
	runExperiment(b, experiments.E9IterativeBlocking)
}

// BenchmarkE10Progressive regenerates E10: progressive recall curves and
// AUC (§IV, [23], [26]).
func BenchmarkE10Progressive(b *testing.B) {
	runExperiment(b, experiments.E10Progressive)
}

// BenchmarkE11BudgetWindows regenerates E11: benefit/cost window ablation
// (§IV, [1]).
func BenchmarkE11BudgetWindows(b *testing.B) {
	runExperiment(b, experiments.E11BudgetWindows)
}

// BenchmarkE12ScaleSweep regenerates E12: complexity-order fits of the
// blocking pipeline (§I).
func BenchmarkE12ScaleSweep(b *testing.B) {
	runExperiment(b, experiments.E12ScaleSweep)
}
