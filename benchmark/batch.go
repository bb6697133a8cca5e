package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"entityres/er"
	"entityres/internal/rdf"
	"entityres/internal/tabular"
)

// The two batch workloads run the paper's headline job, file to clusters,
// through one pipeline used two ways: interlink spends its time in the
// matcher and never enters meta-blocking, interlink-meta spends a large
// part restructuring the blocking graph and hands the matcher the pruned
// remainder.

var interlinkWorkload = &workload{
	name: "interlink",
	why:  "batch clean-clean from two CSV files to clusters: matching, similarity and token do over 90 % of the work and metablocking none",
	round: func(ctx context.Context, e *env, tr *tracer, check bool) (*round, error) {
		return batchRound(ctx, e, tr, interlinkJob(e))
	},
	attribute: func(ctx context.Context, e *env, first *round) (map[string]float64, error) {
		return batchSequential(e, interlinkJob(e), first)
	},
}

var interlinkMetaWorkload = &workload{
	name: "interlink-meta",
	why:  "batch dirty from one N-Triples file through block filtering and ECBS/WNP meta-blocking: graph build and prune are a large share, the matcher sees the pruned rest",
	round: func(ctx context.Context, e *env, tr *tracer, check bool) (*round, error) {
		return batchRound(ctx, e, tr, interlinkMetaJob(e))
	},
	attribute: func(ctx context.Context, e *env, first *round) (map[string]float64, error) {
		return batchSequential(e, interlinkMetaJob(e), first)
	},
}

// batchJob is one batch workload's inputs and configuration.
type batchJob struct {
	kind     er.Kind
	gen      er.GenConfig
	format   string // "csv" or "nt"
	parse    string // the layer that parses the format: "tabular" or "rdf"
	pipeline er.Pipeline
}

func vocabScale(entities int) int {
	if s := entities / 2000; s > 1 {
		return s
	}
	return 1
}

func interlinkJob(e *env) batchJob {
	light := er.LightCorruption()
	n := e.sizes.interlinkEntities
	return batchJob{
		kind:   er.CleanClean,
		format: "csv",
		parse:  "tabular",
		gen: er.GenConfig{Seed: e.seed, Entities: n, DupRatio: 0.5, SchemaNoise: 0.5,
			VocabScale: vocabScale(n), Domain: er.People, Corruption: &light},
		pipeline: er.Pipeline{
			Blocker:    &er.TokenBlocking{},
			Processors: []er.BlockProcessor{&er.MaxComparisonsPurge{Max: 2000}},
			Matcher:    &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: 0.5},
		},
	}
}

func interlinkMetaJob(e *env) batchJob {
	heavy := er.HeavyCorruption()
	n := e.sizes.metaEntities
	return batchJob{
		kind:   er.Dirty,
		format: "nt",
		parse:  "rdf",
		gen: er.GenConfig{Seed: e.seed, Entities: n, DupRatio: 0.5, MaxDuplicates: 2, SchemaNoise: 0.5,
			VocabScale: vocabScale(n), Domain: er.People, Corruption: &heavy},
		pipeline: er.Pipeline{
			Blocker:    &er.TokenBlocking{},
			Processors: []er.BlockProcessor{&er.MaxComparisonsPurge{Max: 20000}, &er.BlockFiltering{}},
			Meta:       &er.MetaBlocker{Weight: er.ECBS, Prune: er.WNP},
			Matcher:    &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: 0.4},
		},
	}
}

// sources names the job's input files under dir.
func (j batchJob) sources(dir string) []er.Source {
	if j.kind == er.CleanClean {
		return []er.Source{
			{Path: filepath.Join(dir, "kb0."+j.format)},
			{Path: filepath.Join(dir, "kb1."+j.format), Index: 1},
		}
	}
	return []er.Source{{Path: filepath.Join(dir, "kb0."+j.format)}}
}

// writeInputs streams the generated corpus into the job's source files and
// truth.tsv, and returns how many records it wrote.
func (j batchJob) writeInputs(dir string) (int, error) {
	var stream *er.GenStream
	var err error
	if j.kind == er.CleanClean {
		stream, err = er.StreamCleanClean(j.gen)
	} else {
		stream, err = er.StreamDirty(j.gen)
	}
	if err != nil {
		return 0, err
	}
	srcs := j.sources(dir)
	files := make([]*os.File, len(srcs))
	bufs := make([]*bufio.Writer, len(srcs))
	csvs := make([]*tabular.CSVWriter, len(srcs))
	defer func() {
		for _, f := range files {
			if f != nil {
				f.Close() // error paths only; the success path closes and checks below
			}
		}
	}()
	for i, s := range srcs {
		if files[i], err = os.Create(s.Path); err != nil {
			return 0, err
		}
		bufs[i] = bufio.NewWriterSize(files[i], 1<<16)
		if j.format == "csv" {
			cols, err := er.GenColumns(j.gen, i == 1)
			if err != nil {
				return 0, err
			}
			if csvs[i], err = tabular.NewCSVWriter(bufs[i], cols, tabular.Options{}); err != nil {
				return 0, err
			}
		}
	}
	tf, err := os.Create(filepath.Join(dir, "truth.tsv"))
	if err != nil {
		return 0, err
	}
	defer tf.Close() // error paths only
	tw := bufio.NewWriter(tf)

	records := 0
	var cluster []string // URIs of the entity being emitted: original, then duplicates
	for {
		rec, ok := stream.Next()
		if !ok {
			break
		}
		records++
		d := &er.Description{URI: rec.URI, Attrs: rec.Attrs}
		if csvs[rec.Source] != nil {
			err = csvs[rec.Source].Write(d)
		} else {
			err = rdf.WriteDescription(bufs[rec.Source], d)
		}
		if err != nil {
			return 0, err
		}
		// Ground truth is every pair of one entity's descriptions. A dirty
		// stream emits an original directly followed by its duplicates; a
		// clean-clean stream has one duplicate per original at most.
		if rec.MatchOf == "" {
			cluster = append(cluster[:0], rec.URI)
			continue
		}
		if j.kind == er.CleanClean {
			cluster = append(cluster[:0], rec.MatchOf)
		}
		for _, other := range cluster {
			if _, err := fmt.Fprintf(tw, "%s\t%s\n", other, rec.URI); err != nil {
				return 0, err
			}
		}
		cluster = append(cluster, rec.URI)
	}
	if err := tw.Flush(); err != nil {
		return 0, err
	}
	if err := tf.Close(); err != nil {
		return 0, err
	}
	for i := range files {
		if csvs[i] != nil {
			if err := csvs[i].Flush(); err != nil {
				return 0, err
			}
		}
		if err := bufs[i].Flush(); err != nil {
			return 0, err
		}
		err := files[i].Close()
		files[i] = nil
		if err != nil {
			return 0, err
		}
	}
	return records, nil
}

// batchOutput is what a job produced, plus — traced — the block collection
// each blocking stage handed on, for the quality evaluation that runs after
// the timed region.
type batchOutput struct {
	c        *er.Collection
	matches  *er.Matches
	clusters [][]er.ID
	stages   []stage
}

type stage struct {
	layer  string
	blocks *er.Blocks
}

// batchRound generates the inputs (set-up), then times the job from opening
// the source files to clusters. Untraced it is one engine run; traced it
// drives the same stages by hand, a span around each.
func batchRound(ctx context.Context, e *env, tr *tracer, j batchJob) (*round, error) {
	dir, err := os.MkdirTemp(e.workdir, "batch-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	records, err := j.writeInputs(dir)
	if err != nil {
		return nil, err
	}
	r := &round{setupS: time.Since(t0).Seconds(), units: float64(records), attempted: 1}
	runtime.GC() // every round starts its timed region from a collected heap

	var out *batchOutput
	if tr == nil {
		out, err = batchUntraced(ctx, e, j, dir, r)
	} else {
		out, err = batchTraced(ctx, e, tr, j, dir, r)
	}
	if err != nil {
		return nil, err
	}
	if out.c.Len() != records {
		return nil, fmt.Errorf("loaded %d descriptions, generator wrote %d", out.c.Len(), records)
	}
	if out.matches.Len() == 0 || len(out.clusters) == 0 {
		return nil, fmt.Errorf("the job found no matches: the workload is vacuous")
	}
	tf, err := os.Open(filepath.Join(dir, "truth.tsv"))
	if err != nil {
		return nil, err
	}
	defer tf.Close()
	truth, err := er.ReadTruthTSV(out.c, bufio.NewReader(tf))
	if err != nil {
		return nil, err
	}
	prf := er.ComparePairs(out.matches, truth)
	r.f1, r.recall = prf.F1, prf.Recall
	if r.digest, err = matchDigest(out.c, out.matches); err != nil {
		return nil, err
	}

	// Per-stage PC, PQ and RR, outside the spans: the protocol of
	// "Benchmarking Blocking Algorithms for Web Entities".
	lastPC := 0.0
	for _, st := range out.stages {
		q := blockingQuality(out.c, st.blocks, truth)
		r.layers[st.layer+".pc"], r.layers[st.layer+".pq"], r.layers[st.layer+".rr"] = q.pc, q.pq, q.rr
		if st.layer != "metablocking" { // its pair counts are recorded where it runs
			r.layers[st.layer+".blocks"] = float64(st.blocks.Len())
			r.layers[st.layer+".comparisons"] = float64(q.comparisons)
		}
		lastPC = q.pc
	}
	if lastPC > 0 {
		r.layers["matching.recall_on_candidates"] = prf.Recall / lastPC
	}
	return r, nil
}

// quality is PC, PQ and RR of one block collection.
type quality struct {
	pc, pq, rr  float64
	comparisons int64
}

// blockingQuality scores bs against ground truth with the aggregate
// cardinality ||B|| (comparisons counted once per block that suggests them)
// in PQ and RR, as the blocking papers define them. er.EvaluateBlocking
// deduplicates the suggested pairs instead, which on the unpurged token
// blocks of these inputs means enumerating hundreds of millions of pairs;
// here only the true pairs are looked up.
func blockingQuality(c *er.Collection, bs *er.Blocks, truth *er.Matches) quality {
	blocksOf := bs.BlocksOf() // ascending block indexes per description
	found := 0
	truth.Each(func(p er.Pair) bool {
		a, b := blocksOf[p.A], blocksOf[p.B]
		for i, k := 0, 0; i < len(a) && k < len(b); {
			switch {
			case a[i] == b[k]:
				found++
				return true
			case a[i] < b[k]:
				i++
			default:
				k++
			}
		}
		return true
	})
	q := quality{comparisons: bs.TotalComparisons()}
	if truth.Len() > 0 {
		q.pc = float64(found) / float64(truth.Len())
	}
	if q.comparisons > 0 {
		q.pq = float64(found) / float64(q.comparisons)
	}
	if all := c.TotalComparisons(); all > q.comparisons {
		q.rr = 1 - float64(q.comparisons)/float64(all)
	}
	return q
}

func (j batchJob) load(dir string) (*er.Collection, error) {
	c := er.NewCollection(j.kind)
	for _, s := range j.sources(dir) {
		if err := er.ReadSource(c, s); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func batchUntraced(ctx context.Context, e *env, j batchJob, dir string, r *round) (*batchOutput, error) {
	mem := startMem()
	t0 := time.Now()
	c, err := j.load(dir)
	if err != nil {
		return nil, err
	}
	res, err := er.NewParallelPipeline(j.pipeline, er.ParallelOptions{Workers: e.workers}).Run(ctx, c)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	clusters := res.Clusters()
	t2 := time.Now()
	r.allocMB, _ = mem.stop()
	r.wallS = t2.Sub(t0).Seconds()
	r.writeUS = []float64{t1.Sub(t0).Seconds() * 1e6}
	r.readUS = []float64{clusterUS(res.Matches, t2.Sub(t1))}
	r.comparisons = res.Comparisons
	return &batchOutput{c: c, matches: res.Matches, clusters: clusters}, nil
}

// batchTraced drives the stages the engine runs — the same parallel
// variants — by hand, with a span and an allocation delta around each.
func batchTraced(ctx context.Context, e *env, tr *tracer, j batchJob, dir string, r *round) (*batchOutput, error) {
	r.layers = make(map[string]float64)
	// The parse leg streams the files without keeping records. It is its
	// own root span outside the timed region, and entity.load_s is the load
	// minus it.
	ps := tr.begin(j.parse+".parse", -1)
	n, err := er.SourceRecords(j.sources(dir))
	parse := tr.end(ps).Seconds()
	if err != nil {
		return nil, err
	}
	r.layers[j.parse+".parse_s"] = parse
	r.layers[j.parse+".records_per_s"] = float64(n) / parse

	sampler := startHeapSampler()
	root := tr.begin("pipeline.run", -1)
	// run times one stage; the stages of the write side add up in writeUS.
	run := func(name string, fn func() error) (secs, mb float64, objects uint64, err error) {
		mem := startMem()
		s := tr.begin(name, root)
		err = fn()
		secs = tr.end(s).Seconds()
		mb, objects = mem.stop()
		r.wallS += secs
		r.allocMB += mb
		return
	}
	out := &batchOutput{}
	p := j.pipeline

	secs, mb, _, err := run("entity.load", func() (err error) { out.c, err = j.load(dir); return })
	if err != nil {
		return nil, err
	}
	write := secs
	r.layers["entity.load_s"], r.layers["entity.load_alloc_mb"] = max(secs-parse, 0), mb

	var bs *er.Blocks
	secs, mb, _, err = run("blocking.build", func() (err error) {
		// The engine shards the index build when it has more than one shard.
		if kb, ok := p.Blocker.(er.KeyedBlocker); ok && e.workers > 1 {
			bs, err = er.BuildShardedBlocks(ctx, out.c, kb, e.workers)
		} else {
			bs, err = p.Blocker.Block(out.c)
		}
		return
	})
	if err != nil {
		return nil, err
	}
	write += secs
	r.layers["blocking.build_s"], r.layers["blocking.alloc_mb"] = secs, mb
	out.stages = append(out.stages, stage{"blocking", bs})

	secs, _, _, _ = run("blockproc.clean", func() error {
		for _, proc := range p.Processors {
			bs = proc.Process(bs)
		}
		return nil
	})
	write += secs
	r.layers["blockproc.clean_s"] = secs
	out.stages = append(out.stages, stage{"blockproc", bs})

	if p.Meta != nil {
		candidates := bs.TotalComparisons()
		secs, mb, _, _ = run("metablocking.restructure", func() error {
			bs = p.Meta.RestructureParallel(out.c, bs, e.workers)
			return nil
		})
		write += secs
		r.layers["metablocking.restructure_s"], r.layers["metablocking.alloc_mb"] = secs, mb
		r.layers["metablocking.candidate_pairs"] = float64(candidates)
		r.layers["metablocking.kept_pairs"] = float64(bs.Len())
		out.stages = append(out.stages, stage{"metablocking", bs})
	}

	var res er.MatchResult
	secs, mb, objects, err := run("matching.compare", func() (err error) {
		res, err = er.ResolveBlocksParallel(ctx, out.c, bs, p.Matcher, e.workers)
		return
	})
	if err != nil {
		return nil, err
	}
	write += secs
	r.layers["matching.compare_s"], r.layers["matching.alloc_mb"] = secs, mb
	r.layers["matching.ns_per_comparison"] = secs * 1e9 / float64(res.Comparisons)
	r.layers["matching.allocs_per_comparison"] = float64(objects) / float64(res.Comparisons)
	r.layers["matching.matches"] = float64(res.Matches.Len())
	r.comparisons = res.Comparisons
	out.matches = res.Matches

	secs, _, _, _ = run("graph.cluster", func() error { out.clusters = res.Matches.Clusters(); return nil })
	r.layers["graph.cluster_s"] = secs
	r.layers["graph.clusters"] = float64(len(out.clusters))
	tr.end(root)
	r.layers["process.peak_heap_mb"], r.layers["process.gc_pause_ms"] = sampler.finish()
	r.writeUS, r.readUS = []float64{write * 1e6}, []float64{clusterUS(res.Matches, time.Duration(secs*1e9))}
	return out, nil
}

// clusterUS is a round's read sample: materializing the clusters takes a
// few milliseconds, little enough that where a GC cycle falls decides one
// reading, so the timed first call is joined by four more and the median of
// the five is reported.
func clusterUS(m *er.Matches, first time.Duration) float64 {
	us := []float64{first.Seconds() * 1e6}
	for len(us) < 5 {
		t := time.Now()
		m.Clusters()
		us = append(us, time.Since(t).Seconds()*1e6)
	}
	return median(us)
}

// batchSequential is the single-thread baseline: round 0's job through the
// sequential er.Pipeline.Run, after the timed rounds. The engine promises
// the sequential runner's matches, so the two digests must agree.
func batchSequential(e *env, j batchJob, first *round) (map[string]float64, error) {
	dir, err := os.MkdirTemp(e.workdir, "seq-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if _, err := j.writeInputs(dir); err != nil {
		return nil, err
	}
	t0 := time.Now()
	c, err := j.load(dir)
	if err != nil {
		return nil, err
	}
	res, err := j.pipeline.Run(c)
	if err != nil {
		return nil, err
	}
	clusters := res.Clusters()
	seq := time.Since(t0).Seconds()
	digest, err := matchDigest(c, res.Matches)
	if err != nil {
		return nil, err
	}
	if len(clusters) == 0 || digest != first.digest || res.Comparisons != first.comparisons {
		return nil, fmt.Errorf("sequential and parallel runs disagree: digest %s/%s comparisons %d/%d",
			digest, first.digest, res.Comparisons, first.comparisons)
	}
	return map[string]float64{"pipeline.seq_wall_s": seq, "pipeline.parallel_ratio": seq / first.wallS}, nil
}

// matchDigest is the sha256 over the match pairs in canonical order.
func matchDigest(c *er.Collection, m *er.Matches) (string, error) {
	h := sha256.New()
	if err := er.WriteTruthTSV(h, c, m); err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}
