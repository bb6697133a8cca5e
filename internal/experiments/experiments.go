// Package experiments implements the reproduction experiment suite
// E1–E12: each experiment regenerates the canonical result shape of one
// system family the paper surveys, returning a printable table plus the
// headline metrics that the benchmark harness reports. Both cmd/erbench
// and the root bench_test.go are thin wrappers over this package, so the
// printed tables and the measured benchmarks can never drift apart.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"entityres/internal/blocking"
	"entityres/internal/blockproc"
	"entityres/internal/datagen"
	"entityres/internal/evaluation"
	"entityres/internal/iterative"
	"entityres/internal/iterblock"
	"entityres/internal/mapreduce"
	"entityres/internal/matching"
	"entityres/internal/metablocking"
	"entityres/internal/multiblock"
	"entityres/internal/progressive"
	"entityres/internal/simjoin"
	"entityres/internal/token"
)

// Scale selects experiment sizes; Small keeps every experiment under a
// couple of seconds for CI, Medium is the reporting configuration.
type Scale int

const (
	Small Scale = iota
	Medium
)

func (s Scale) n(small, medium int) int {
	if s == Medium {
		return medium
	}
	return small
}

// Result is one experiment's output.
type Result struct {
	Table *evaluation.Table
	// Metrics are the headline numbers reported by the benchmark harness
	// (name → value), e.g. "token_PC" or "speedup_8w".
	Metrics map[string]float64
}

func newResult(t *evaluation.Table) *Result {
	return &Result{Table: t, Metrics: map[string]float64{}}
}

// refProfiler is the tokenization shared by matching-oriented experiments:
// reference values are relational evidence, not text.
func refProfiler() *token.Profiler {
	return &token.Profiler{
		Scheme:        token.SchemaAgnostic,
		Stopwords:     token.DefaultStopwords(),
		SkipRefValues: true,
	}
}

// E1BlockingMethods compares the blocking family on a schema-heterogeneous
// clean-clean collection (§II; the comparison axes of [13], [21]).
// Expected shape: standard blocking collapses in PC; token blocking is
// near-total PC at poor PQ; attribute clustering and the pair-oriented
// methods (simjoin, multiblock) recover PQ.
func E1BlockingMethods(scale Scale, seed int64) (*Result, error) {
	c, gt, err := datagen.GenerateCleanClean(datagen.Config{
		Seed: seed, Entities: scale.n(400, 2000), DupRatio: 0.6, SchemaNoise: 0.9,
	})
	if err != nil {
		return nil, err
	}
	blockers := []blocking.Blocker{
		&blocking.StandardBlocking{},
		&blocking.TokenBlocking{},
		&blocking.AttributeClustering{},
		&blocking.SortedNeighborhood{Window: 8},
		&blocking.QGramsBlocking{Q: 3},
		&blocking.ExtendedQGrams{Q: 3},
		&blocking.SuffixArrayBlocking{},
		&blocking.Canopy{},
		&blocking.PrefixInfixSuffix{},
		&simjoin.Blocking{Threshold: 0.3},
		&multiblock.Aggregator{Blockers: []blocking.Blocker{
			&blocking.TokenBlocking{}, &blocking.QGramsBlocking{Q: 3}, &blocking.SuffixArrayBlocking{},
		}},
	}
	res := newResult(evaluation.NewTable(
		"E1: blocking methods on heterogeneous clean-clean KBs",
		"method", "PC", "PQ", "RR", "comparisons", "blocks", "ms"))
	for _, b := range blockers {
		t0 := time.Now()
		bs, err := b.Block(c)
		if err != nil {
			return nil, fmt.Errorf("E1 %s: %w", b.Name(), err)
		}
		el := time.Since(t0)
		m := evaluation.EvaluateBlocking(c, bs, gt)
		res.Table.AddRow(b.Name(), m.PC, m.PQ, m.RR, m.Distinct, m.Blocks, el.Milliseconds())
		res.Metrics[b.Name()+"_PC"] = m.PC
		res.Metrics[b.Name()+"_PQ"] = m.PQ
	}
	return res, nil
}

// E2BlockPurging measures block purging and filtering (§II, [20]): the
// comparison count collapses while PC barely moves.
func E2BlockPurging(scale Scale, seed int64) (*Result, error) {
	c, gt, err := datagen.GenerateDirty(datagen.Config{
		Seed: seed, Entities: scale.n(600, 3000), DupRatio: 0.5, ZipfS: 1.4,
	})
	if err != nil {
		return nil, err
	}
	bs, err := (&blocking.TokenBlocking{}).Block(c)
	if err != nil {
		return nil, err
	}
	steps := []struct {
		name string
		proc blockproc.Processor
	}{
		{"raw token blocking", nil},
		{"+ size purging", blockproc.Chain{&blockproc.SizePurge{}}},
		{"+ block filtering", blockproc.Chain{&blockproc.SizePurge{}, &blockproc.BlockFiltering{Ratio: 0.7}}},
	}
	res := newResult(evaluation.NewTable(
		"E2: block purging and filtering",
		"stage", "PC", "comparisons", "RR", "blocks"))
	for _, st := range steps {
		cur := bs
		if st.proc != nil {
			cur = st.proc.Process(bs)
		}
		m := evaluation.EvaluateBlocking(c, cur, gt)
		res.Table.AddRow(st.name, m.PC, m.Distinct, m.RR, m.Blocks)
		res.Metrics[st.name+"_comparisons"] = float64(m.Distinct)
		res.Metrics[st.name+"_PC"] = m.PC
	}
	return res, nil
}

// E3MetaBlocking sweeps the weighting × pruning design space of
// meta-blocking (§II, [22]). Expected: node-centric and cardinality
// schemes cut comparisons by orders of magnitude at a small PC cost;
// ECBS/ARCS dominate raw CBS.
func E3MetaBlocking(scale Scale, seed int64) (*Result, error) {
	c, gt, err := datagen.GenerateCleanClean(datagen.Config{
		Seed: seed, Entities: scale.n(400, 2000), DupRatio: 0.6, SchemaNoise: 0.7,
	})
	if err != nil {
		return nil, err
	}
	bs, err := (&blocking.TokenBlocking{}).Block(c)
	if err != nil {
		return nil, err
	}
	base := evaluation.EvaluateBlocking(c, bs, gt)
	res := newResult(evaluation.NewTable(
		"E3: meta-blocking weighting × pruning (input comparisons: "+fmt.Sprint(base.Distinct)+")",
		"weight", "prune", "PC", "PQ", "comparisons", "kept%"))
	for _, w := range metablocking.WeightSchemes() {
		for _, p := range metablocking.PruneSchemes() {
			mb := &metablocking.MetaBlocker{Weight: w, Prune: p}
			out := mb.Restructure(c, bs)
			m := evaluation.EvaluateBlocking(c, out, gt)
			kept := 100 * float64(m.Distinct) / float64(base.Distinct)
			res.Table.AddRow(w.String(), p.String(), m.PC, m.PQ, m.Distinct, kept)
			res.Metrics[w.String()+"_"+p.String()+"_PC"] = m.PC
			res.Metrics[w.String()+"_"+p.String()+"_kept"] = kept
		}
	}
	return res, nil
}

// E4ParallelMetaBlocking measures strong scaling of parallel meta-blocking
// (§II, [10], [11]) on the goroutine MapReduce engine.
func E4ParallelMetaBlocking(scale Scale, seed int64) (*Result, error) {
	c, _, err := datagen.GenerateCleanClean(datagen.Config{
		Seed: seed, Entities: scale.n(600, 3000), DupRatio: 0.6,
	})
	if err != nil {
		return nil, err
	}
	bs, err := (&blocking.TokenBlocking{}).Block(c)
	if err != nil {
		return nil, err
	}
	mb := &metablocking.MetaBlocker{Weight: metablocking.JS, Prune: metablocking.WEP}
	res := newResult(evaluation.NewTable(
		"E4: parallel meta-blocking strong scaling",
		"workers", "ms", "speedup"))
	var base time.Duration
	for _, w := range workerCounts() {
		t0 := time.Now()
		if _, err := mapreduce.ParallelMetaBlocking(c, bs, mb, w); err != nil {
			return nil, err
		}
		el := time.Since(t0)
		if w == 1 {
			base = el
		}
		speedup := float64(base) / float64(el)
		res.Table.AddRow(w, el.Milliseconds(), speedup)
		res.Metrics[fmt.Sprintf("speedup_%dw", w)] = speedup
	}
	return res, nil
}

func workerCounts() []int {
	// Sweep at least to 4 workers so the sharding machinery is exercised
	// even on single-core machines (where speedup is expectedly flat); on
	// multicore hardware the sweep extends to GOMAXPROCS.
	limit := runtime.GOMAXPROCS(0)
	if limit < 4 {
		limit = 4
	}
	counts := []int{1}
	for w := 2; w <= limit; w *= 2 {
		counts = append(counts, w)
	}
	return counts
}

// E5SimilarityJoin sweeps the join threshold (§II, [5], [28]): candidates
// shrink sharply with the threshold and prefix filtering stays well below
// the brute-force pair count.
func E5SimilarityJoin(scale Scale, seed int64) (*Result, error) {
	c, gt, err := datagen.GenerateDirty(datagen.Config{
		Seed: seed, Entities: scale.n(500, 2500), DupRatio: 0.5,
	})
	if err != nil {
		return nil, err
	}
	p := token.DefaultProfiler()
	inputs := make([]simjoin.Input, 0, c.Len())
	for _, d := range c.All() {
		inputs = append(inputs, simjoin.Input{ID: d.ID, Source: d.Source, Tokens: p.Tokens(d)})
	}
	res := newResult(evaluation.NewTable(
		"E5: similarity-join blocking vs threshold (PPJoin)",
		"threshold", "pairs", "gtCovered", "ms", "bruteMs"))
	for _, th := range []float64{0.3, 0.5, 0.7, 0.9} {
		t0 := time.Now()
		out, err := simjoin.Jaccard(inputs, th, simjoin.Options{Positional: true})
		if err != nil {
			return nil, err
		}
		el := time.Since(t0)
		t1 := time.Now()
		simjoin.BruteForce(inputs, th, false)
		elBrute := time.Since(t1)
		covered := 0
		for _, r := range out {
			if gt.Contains(r.Pair.A, r.Pair.B) {
				covered++
			}
		}
		cov := 0.0
		if gt.Len() > 0 {
			cov = float64(covered) / float64(gt.Len())
		}
		res.Table.AddRow(th, len(out), cov, el.Milliseconds(), elBrute.Milliseconds())
		res.Metrics[fmt.Sprintf("pairs_t%.1f", th)] = float64(len(out))
		res.Metrics[fmt.Sprintf("coverage_t%.1f", th)] = cov
	}
	return res, nil
}

// E6MapReduceBlocking compares sequential token blocking against the
// MapReduce job at increasing worker counts (§II, [18]).
func E6MapReduceBlocking(scale Scale, seed int64) (*Result, error) {
	c, _, err := datagen.GenerateDirty(datagen.Config{
		Seed: seed, Entities: scale.n(2000, 10000), DupRatio: 0.5,
	})
	if err != nil {
		return nil, err
	}
	res := newResult(evaluation.NewTable(
		"E6: MapReduce token blocking throughput",
		"config", "ms", "blocks", "speedup"))
	t0 := time.Now()
	seq, err := (&blocking.TokenBlocking{}).Block(c)
	if err != nil {
		return nil, err
	}
	seqEl := time.Since(t0)
	res.Table.AddRow("sequential", seqEl.Milliseconds(), seq.Len(), 1.0)
	for _, w := range workerCounts() {
		t0 := time.Now()
		par, err := mapreduce.ParallelTokenBlocking(c, nil, w)
		if err != nil {
			return nil, err
		}
		el := time.Since(t0)
		speedup := float64(seqEl) / float64(el)
		res.Table.AddRow(fmt.Sprintf("mapreduce %dw", w), el.Milliseconds(), par.Len(), speedup)
		res.Metrics[fmt.Sprintf("speedup_%dw", w)] = speedup
	}
	return res, nil
}

// E7RSwoosh sweeps the duplication ratio (§III, [2]): the comparisons
// R-Swoosh saves over naive pairwise resolution grow with the duplicate
// density, because merging collapses the resolved set.
func E7RSwoosh(scale Scale, seed int64) (*Result, error) {
	res := newResult(evaluation.NewTable(
		"E7: R-Swoosh vs naive pairwise resolution",
		"dupRatio", "naiveCmp", "swooshCmp", "saved%", "recallNaive", "recallSwoosh"))
	for _, ratio := range []float64{0.2, 0.5, 0.8, 1.0} {
		c, gt, err := datagen.GenerateDirty(datagen.Config{
			Seed: seed, Entities: scale.n(150, 600), DupRatio: ratio, MaxDuplicates: 3,
		})
		if err != nil {
			return nil, err
		}
		m := &matching.Matcher{Sim: &matching.TokenContainment{}, Threshold: 0.75}
		naive := iterative.NaivePairwise(c, m)
		sw := iterative.RSwoosh(c, m)
		saved := 100 * (1 - float64(sw.Comparisons)/float64(naive.Comparisons))
		rn := evaluation.ComparePairs(naive.Matches.Closure(), gt).Recall
		rs := evaluation.ComparePairs(sw.Matches, gt).Recall
		res.Table.AddRow(ratio, naive.Comparisons, sw.Comparisons, saved, rn, rs)
		res.Metrics[fmt.Sprintf("saved_r%.1f", ratio)] = saved
	}
	return res, nil
}

// E8CollectiveER compares attribute-only matching with relationship-based
// collective resolution on bibliographic data (§III, [3]).
func E8CollectiveER(scale Scale, seed int64) (*Result, error) {
	heavy := datagen.Corruption{Typo: 0.3, TokenDrop: 0.4, TokenSwap: 0.3}
	c, gt, err := datagen.GenerateBibliographic(datagen.Config{
		Seed: seed, Entities: scale.n(60, 300), DupRatio: 0.8, Corruption: &heavy,
	})
	if err != nil {
		return nil, err
	}
	bs, err := (&blocking.TokenBlocking{}).Block(c)
	if err != nil {
		return nil, err
	}
	cands := bs.DistinctPairs().Pairs()
	base := &matching.TokenJaccard{Profiler: refProfiler()}
	const threshold = 0.55
	res := newResult(evaluation.NewTable(
		"E8: collective (relationship-based) vs attribute-only resolution",
		"method", "precision", "recall", "F1", "comparisons"))
	bl := matching.ResolvePairs(c, cands, &matching.Matcher{Sim: base, Threshold: threshold})
	pb := evaluation.ComparePairs(bl.Matches, gt)
	res.Table.AddRow("attribute-only", pb.Precision, pb.Recall, pb.F1, bl.Comparisons)
	co := &iterative.Collective{Base: base, Alpha: 0.3, Threshold: threshold}
	cr := co.Resolve(c, cands)
	pc := evaluation.ComparePairs(cr.Matches, gt)
	res.Table.AddRow("collective", pc.Precision, pc.Recall, pc.F1, cr.Comparisons)
	res.Metrics["baseline_F1"] = pb.F1
	res.Metrics["collective_F1"] = pc.F1
	res.Metrics["baseline_recall"] = pb.Recall
	res.Metrics["collective_recall"] = pc.Recall
	return res, nil
}

// E9IterativeBlocking compares one-pass block processing with iterative
// blocking (§III, [27]): more matches from merge propagation, fewer
// executed comparisons from redundancy savings.
func E9IterativeBlocking(scale Scale, seed int64) (*Result, error) {
	c, gt, err := datagen.GenerateDirty(datagen.Config{
		Seed: seed, Entities: scale.n(300, 1500), DupRatio: 0.8, MaxDuplicates: 3,
	})
	if err != nil {
		return nil, err
	}
	bs, err := (&blocking.TokenBlocking{}).Block(c)
	if err != nil {
		return nil, err
	}
	m := &matching.Matcher{Sim: &matching.TokenContainment{}, Threshold: 0.75}
	res := newResult(evaluation.NewTable(
		"E9: iterative blocking vs one-pass",
		"method", "recall", "precision", "comparisons", "rounds"))
	one := iterblock.OnePass(c, bs, m)
	p1raw := evaluation.ComparePairs(one.Matches, gt)
	res.Table.AddRow("one-pass (pairwise)", p1raw.Recall, p1raw.Precision, one.Comparisons, one.Rounds)
	p1 := evaluation.ComparePairs(one.Matches.Closure(), gt)
	res.Table.AddRow("one-pass (closed)", p1.Recall, p1.Precision, one.Comparisons, one.Rounds)
	it := iterblock.Resolve(c, bs, m)
	p2 := evaluation.ComparePairs(it.Matches, gt)
	res.Table.AddRow("iterative", p2.Recall, p2.Precision, it.Comparisons, it.Rounds)
	res.Metrics["onepass_comparisons"] = float64(one.Comparisons)
	res.Metrics["iterative_comparisons"] = float64(it.Comparisons)
	res.Metrics["onepass_raw_recall"] = p1raw.Recall
	res.Metrics["onepass_recall"] = p1.Recall
	res.Metrics["onepass_precision"] = p1.Precision
	res.Metrics["iterative_recall"] = p2.Recall
	res.Metrics["iterative_precision"] = p2.Precision
	return res, nil
}

// E10Progressive compares the §IV scheduling heuristics: progressive
// recall at budget fractions plus normalized AUC.
func E10Progressive(scale Scale, seed int64) (*Result, error) {
	c, gt, err := datagen.GenerateDirty(datagen.Config{
		Seed: seed, Entities: scale.n(400, 1500), DupRatio: 0.5,
	})
	if err != nil {
		return nil, err
	}
	bs, err := (&blocking.TokenBlocking{}).Block(c)
	if err != nil {
		return nil, err
	}
	total := int64(bs.DistinctPairs().Len())
	m := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
	key := blocking.SortedTokensKey(nil)
	schedulers := []struct {
		name string
		make func() progressive.Scheduler
	}{
		{"random", func() progressive.Scheduler { return progressive.NewRandomOrder(bs, seed) }},
		{"static", func() progressive.Scheduler { return progressive.NewStaticOrder(bs) }},
		{"slidingwindow", func() progressive.Scheduler { return progressive.NewSlidingWindow(c, key, 0) }},
		{"hierarchy", func() progressive.Scheduler { return progressive.NewHierarchy(c, key, nil) }},
		{"psnm", func() progressive.Scheduler { return progressive.NewPSNM(c, key, false, 0) }},
		{"psnm+lookahead", func() progressive.Scheduler { return progressive.NewPSNM(c, key, true, 0) }},
		{"benefitcost", func() progressive.Scheduler {
			return progressive.NewBenefitCost(metablocking.BuildGraph(bs, metablocking.ARCS), 64, 1)
		}},
	}
	fractions := []float64{0.01, 0.05, 0.10, 0.25, 0.50}
	res := newResult(evaluation.NewTable(
		fmt.Sprintf("E10: progressive recall (budget = %d comparisons)", total),
		"scheduler", "r@1%", "r@5%", "r@10%", "r@25%", "r@50%", "AUC"))
	for _, s := range schedulers {
		run, err := progressive.RunParallel(context.Background(), c, s.make(), m, gt, total, 1)
		if err != nil {
			return nil, err
		}
		row := []any{s.name}
		for _, f := range fractions {
			row = append(row, run.Curve.RecallAt(int64(f*float64(total))))
		}
		auc := run.Curve.AUC(total)
		row = append(row, auc)
		res.Table.AddRow(row...)
		res.Metrics[s.name+"_AUC"] = auc
		res.Metrics[s.name+"_r10"] = run.Curve.RecallAt(total / 10)
	}
	return res, nil
}

// E11BudgetWindows ablates the benefit/cost scheduler of [1]: window size
// and boost against the PSNM and random baselines at a 10% budget.
func E11BudgetWindows(scale Scale, seed int64) (*Result, error) {
	c, gt, err := datagen.GenerateDirty(datagen.Config{
		Seed: seed, Entities: scale.n(400, 1500), DupRatio: 0.5,
	})
	if err != nil {
		return nil, err
	}
	bs, err := (&blocking.TokenBlocking{}).Block(c)
	if err != nil {
		return nil, err
	}
	total := int64(bs.DistinctPairs().Len())
	budget := total / 10
	m := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
	g := metablocking.BuildGraph(bs, metablocking.ARCS)
	res := newResult(evaluation.NewTable(
		fmt.Sprintf("E11: benefit/cost windows (budget = %d, 10%%)", budget),
		"scheduler", "recall@budget"))
	addRun := func(name string, s progressive.Scheduler) {
		// A background context never cancels, so RunParallel cannot fail.
		run, _ := progressive.RunParallel(context.Background(), c, s, m, gt, budget, 1)
		r := run.Curve.Final().Recall
		res.Table.AddRow(name, r)
		res.Metrics[name] = r
	}
	addRun("random", progressive.NewRandomOrder(bs, seed))
	addRun("psnm+lookahead", progressive.NewPSNM(c, blocking.SortedTokensKey(nil), true, 0))
	for _, w := range []int{16, 64, 256} {
		for _, boost := range []float64{0.5, 1, 2} {
			addRun(fmt.Sprintf("benefitcost w=%d b=%.1f", w, boost),
				progressive.NewBenefitCost(g, w, boost))
		}
	}
	return res, nil
}

// E12ScaleSweep grows the collection and fits complexity orders (§I
// "web-scale" claim): exhaustive comparisons grow quadratically (slope ≈
// 2) while block construction time and — after size purging, filtering
// and cardinality-node meta-blocking — the suggested candidate set grow
// near-linearly. CNP is the pruning of choice here precisely because its
// per-node retention budget keeps the candidate set O(n·k).
func E12ScaleSweep(scale Scale, seed int64) (*Result, error) {
	sizes := []int{500, 1000, 2000, 4000}
	if scale == Medium {
		sizes = []int{1000, 2000, 4000, 8000, 16000}
	}
	res := newResult(evaluation.NewTable(
		"E12: scale sweep of blocking + planning",
		"entities", "descriptions", "blockMs", "planMs", "suggested", "exhaustive"))
	var ns, blockTimes, suggested, exhaustive []float64
	for _, n := range sizes {
		c, _, err := datagen.GenerateDirty(datagen.Config{Seed: seed, Entities: n, DupRatio: 0.5})
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		bs, err := (&blocking.TokenBlocking{}).Block(c)
		if err != nil {
			return nil, err
		}
		blockEl := time.Since(t0)
		t1 := time.Now()
		cleaned := blockproc.Chain{&blockproc.SizePurge{}, &blockproc.BlockFiltering{Ratio: 0.8}}.Process(bs)
		mb := &metablocking.MetaBlocker{Weight: metablocking.ARCS, Prune: metablocking.CNP, Reciprocal: true}
		out := mb.Restructure(c, cleaned)
		planEl := time.Since(t1)
		res.Table.AddRow(n, c.Len(), blockEl.Milliseconds(), planEl.Milliseconds(),
			out.TotalComparisons(), c.TotalComparisons())
		ns = append(ns, float64(c.Len()))
		blockTimes = append(blockTimes, float64(blockEl))
		suggested = append(suggested, float64(out.TotalComparisons()))
		exhaustive = append(exhaustive, float64(c.TotalComparisons()))
	}
	res.Metrics["block_time_slope"] = evaluation.FitSlope(ns, blockTimes)
	res.Metrics["suggested_slope"] = evaluation.FitSlope(ns, suggested)
	res.Metrics["exhaustive_slope"] = evaluation.FitSlope(ns, exhaustive)
	res.Table.AddRow("log-log slope", "", fmt.Sprintf("block=%.2f", res.Metrics["block_time_slope"]), "",
		fmt.Sprintf("suggested=%.2f", res.Metrics["suggested_slope"]),
		fmt.Sprintf("exhaustive=%.2f", res.Metrics["exhaustive_slope"]))
	return res, nil
}

// Experiment is one registered experiment.
type Experiment struct {
	ID   string
	Desc string
	Run  func(Scale, int64) (*Result, error)
}

// All returns the registered experiments in order.
func All() []Experiment {
	return []Experiment{
		{"E1", "blocking methods PC/PQ/RR", E1BlockingMethods},
		{"E2", "block purging and filtering", E2BlockPurging},
		{"E3", "meta-blocking weighting × pruning", E3MetaBlocking},
		{"E4", "parallel meta-blocking scaling", E4ParallelMetaBlocking},
		{"E5", "similarity-join blocking", E5SimilarityJoin},
		{"E6", "MapReduce blocking throughput", E6MapReduceBlocking},
		{"E7", "R-Swoosh comparisons saved", E7RSwoosh},
		{"E8", "collective vs attribute-only", E8CollectiveER},
		{"E9", "iterative blocking", E9IterativeBlocking},
		{"E10", "progressive recall curves", E10Progressive},
		{"E11", "benefit/cost window ablation", E11BudgetWindows},
		{"E12", "scale sweep", E12ScaleSweep},
	}
}
