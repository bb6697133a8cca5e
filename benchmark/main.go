// Command benchmark is the repository's one attributed benchmark: five
// named workloads, end-to-end metrics measured with tracing off, and a
// traced run that attributes them to layers. BENCHMARK.json at the repo
// root declares it; README.md beside this file explains every number.
//
//	bash benchmark/run.sh --workload live --seed 42 --seconds 10 --trace 0
//
// One invocation measures one workload for about --seconds: fixed-size
// rounds on fresh state, each with its own set-up, repeated until the timed
// regions add up to --seconds. Each round draws its inputs from its own seed
// derived from --seed, so a run averages over several inputs. The last line
// of standard output is the result as one JSON object.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// sizes are the workload sizes of one scale. The mixes and configurations
// never change with scale, only the record counts.
type sizes struct {
	interlinkEntities int // clean-clean entities; records are about 1.5x
	metaEntities      int // dirty entities; records are about 1.75x
	liveEntities      int // bounded-head entities; descriptions are about 1.5x
	serveEntities     int // bounded-head entities preloaded and posted
	servePosts        int // 64-op POSTs per round, one every 250 ms
}

var scales = map[string]sizes{
	"full": {interlinkEntities: 36000, metaEntities: 3200, liveEntities: 4000, serveEntities: 2400, servePosts: 16},
	"tiny": {interlinkEntities: 1200, metaEntities: 600, liveEntities: 800, serveEntities: 600, servePosts: 1},
}

// env is what one invocation hands every workload.
type env struct {
	seed    int64
	seconds float64
	trace   bool
	sizes   sizes
	workdir string
	workers int
}

// round is what one timed round of a workload measured.
type round struct {
	setupS      float64
	wallS       float64   // the timed region
	units       float64   // records resolved (batch) or mutations acknowledged (live, serve)
	writeUS     []float64 // latency samples of the write side
	readUS      []float64 // latency samples of the read side
	allocMB     float64
	comparisons int64
	f1, recall  float64
	digest      string // sha256 over the sorted match pairs
	attempted   int64
	failed      int64
	layers      map[string]float64 // per-layer metrics; traced rounds only
}

// workload is one named set of inputs and the code that drives it.
type workload struct {
	name string
	why  string
	// writeTail and readTail are the highest percentile each latency series
	// supports, reported as write_tail_us and read_tail_us: 99 where a run
	// collects 1,100 independent samples or more, lower where the tail is
	// set by fewer events than samples, and 0 where there is too little for
	// any — the tail then repeats the median, so that every workload
	// reports every metric.
	writeTail, readTail float64
	// round sets up fresh state and runs one timed round. A nil tracer
	// means an untraced round. check asks for the once-a-run output checks
	// beyond the digest comparison every round gets.
	round func(ctx context.Context, e *env, tr *tracer, check bool) (*round, error)
	// attribute runs the traced run's extra legs, which are outside the
	// timed region: sequential baseline, nested serve levels, WAL appends.
	// It gets round 0's seed and round 0's untraced result.
	attribute func(ctx context.Context, e *env, first *round) (map[string]float64, error)
}

var workloads = []*workload{
	interlinkWorkload, interlinkMetaWorkload, liveWorkload, liveMetaWorkload, serveWorkload,
}

// metricValue is one reported number in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// countRounds is how many rounds a run always makes, and how many its
// counts are averaged over: enough that one unusual input does not set
// them, few enough that the slowest workload stays inside its run.
const countRounds = 3

// runWorkload runs rounds of w until their timed regions add up to
// e.seconds (untraced, at least countRounds of them), checks the outputs and
// reduces the rounds to the metrics of the requested kind. Round k draws its
// inputs from the k-th seed derived from --seed, so one run averages over
// several inputs: timings are medians over all rounds, counts are means
// over the first countRounds, which makes them a function of the seed
// alone.
func runWorkload(ctx context.Context, w *workload, e *env, spansPath string) (*result, error) {
	var untraced, traced []*round
	var tracers []*tracer
	res := &result{Correct: true, Metrics: make(map[string]metricValue)}
	timed := 0.0
	var overhead []float64
	minRounds := countRounds
	if e.trace {
		minRounds = 1 // a traced run reports no counts, and makes every round twice
	}
	for k := 0; timed < e.seconds || k < minRounds; k++ {
		re := *e
		re.seed = roundSeed(e.seed, k)
		// A traced run makes the round twice on the same inputs. Which of
		// the two goes first alternates, so a machine that is speeding up
		// or slowing down does not pass for tracing overhead.
		order := []bool{false}
		if e.trace {
			order = []bool{k%2 == 1, k%2 == 0}
		}
		var u, t *round
		for _, withTrace := range order {
			var tr *tracer
			if withTrace {
				tr = newTracer(w.name)
				tracers = append(tracers, tr)
			}
			r, err := w.round(ctx, &re, tr, k == 0 && !withTrace)
			if err != nil {
				return nil, fmt.Errorf("%s round %d (traced=%v): %w", w.name, k, withTrace, err)
			}
			fmt.Fprintf(os.Stderr, "%s round %d traced=%v: setup %.3fs timed %.3fs\n", w.name, k, withTrace, r.setupS, r.wallS)
			timed += r.wallS
			res.Attempted += r.attempted
			res.Failed += r.failed
			if withTrace {
				t = r
				traced = append(traced, r)
			} else {
				u = r
				untraced = append(untraced, r)
			}
		}
		if t == nil {
			continue
		}
		overhead = append(overhead, t.wallS/u.wallS-1)
		// Same inputs: traced or not, a round must reach the same matches
		// with the same work.
		if t.digest != u.digest || t.comparisons != u.comparisons {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "%s round %d: traced and untraced disagree: digest %s/%s comparisons %d/%d\n",
				w.name, k, t.digest, u.digest, t.comparisons, u.comparisons)
		}
	}

	values := make(map[string]float64)
	defs := endToEnd
	if !e.trace {
		var setup, thr, writes, reads []float64
		for _, r := range untraced {
			setup = append(setup, r.setupS)
			thr = append(thr, r.units/r.wallS)
			writes = append(writes, r.writeUS...)
			reads = append(reads, r.readUS...)
		}
		values["setup_s"] = median(setup)
		values["throughput_per_s"] = median(thr)
		values["write_p50_us"] = median(writes)
		values["write_tail_us"] = tail(writes, w.writeTail)
		values["read_p50_us"] = median(reads)
		values["read_tail_us"] = tail(reads, w.readTail)
		for _, r := range untraced[:countRounds] {
			values["alloc_mb"] += r.allocMB / countRounds
			values["f1"] += r.f1 / countRounds
			values["recall"] += r.recall / countRounds
			values["comparisons"] += float64(r.comparisons) / countRounds
		}
		fmt.Printf("%s: %d rounds, %d write samples, %d read samples\n", w.name, len(untraced), len(writes), len(reads))
	} else {
		defs = perLayer
		perRound := make(map[string][]float64)
		var writes, reads int
		for _, r := range traced {
			for k, v := range r.layers {
				perRound[k] = append(perRound[k], v)
			}
			writes += len(r.writeUS)
			reads += len(r.readUS)
		}
		for k, vs := range perRound {
			values[k] = median(vs)
		}
		values["loadgen.write_samples"] = float64(writes)
		values["loadgen.read_samples"] = float64(reads)
		values["trace.overhead_share"] = median(overhead)
		if w.attribute != nil {
			re := *e
			re.seed = roundSeed(e.seed, 0)
			extra, err := w.attribute(ctx, &re, untraced[0])
			if err != nil {
				return nil, fmt.Errorf("%s attribution: %w", w.name, err)
			}
			for k, v := range extra {
				values[k] = v
			}
		}
		if spansPath != "" {
			if err := writeSpans(spansPath, tracers); err != nil {
				return nil, err
			}
		}
	}
	for _, m := range defs {
		v := values[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s is not finite", w.name, m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Printf("%-36s %16.6g %s\n", m.Name, v, m.Unit)
		delete(values, m.Name)
	}
	for k := range values {
		return nil, fmt.Errorf("%s: metric %s is reported but not declared", w.name, k)
	}
	return res, nil
}

// roundSeed derives the seed of round k from the run's seed.
func roundSeed(seed int64, k int) int64 { return seed*1_000_003 + int64(k) }

// tail is the pct-th percentile of a series that supports one, and the
// median otherwise.
func tail(xs []float64, pct float64) float64 {
	if pct > 0 {
		return percentile(xs, pct)
	}
	return median(xs)
}

// hostEnv describes the machine and the pinned parallelism of a run.
type hostEnv struct {
	CPU        string `json:"cpu"`
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	Go         string `json:"go"`
}

func readHostEnv(workers int) hostEnv {
	h := hostEnv{CPU: "unknown", Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: workers, Go: runtime.Version()}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.Index(line, ":"); i >= 0 {
					h.CPU = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	return h
}

// resultFile is what -out writes and -compare reads: one result per
// workload plus the host it ran on.
type resultFile struct {
	Env     hostEnv            `json:"env"`
	Seed    int64              `json:"seed"`
	Results map[string]*result `json:"results"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: interlink, interlink-meta, live, live-meta, serve or all")
	seed := fs.Int64("seed", 42, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "how long the timed regions of one workload add up to")
	trace := fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from traced rounds")
	scale := fs.String("scale", "full", "workload sizes: full or tiny (the smoke test's)")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "work"), "directory for generated inputs and journals; removed afterwards")
	spans := fs.String("spans", "", "with -trace 1 and one workload, write the spans of the run to this file as JSON lines")
	out := fs.String("out", "", "also write the results to this file, for -compare")
	compare := fs.Bool("compare", false, "compare two -out files given as arguments against the bounds in BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareFiles("BENCHMARK.json", fs.Args(), os.Stdout)
	}
	sz, ok := scales[*scale]
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown scale %q\n", *scale)
		return 2
	}
	var selected []*workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}

	// GOMAXPROCS and every Workers knob are pinned to min(nproc, 4), so a
	// result names the parallelism it was taken at.
	workers := runtime.NumCPU()
	if workers > 4 {
		workers = 4
	}
	runtime.GOMAXPROCS(workers)
	host := readHostEnv(workers)
	envJSON, _ := json.Marshal(host) // a struct of strings and ints cannot fail to marshal
	fmt.Printf("env %s seed %d scale %s\n", envJSON, *seed, *scale)

	file := resultFile{Env: host, Seed: *seed, Results: make(map[string]*result)}
	var last *result
	for _, w := range selected {
		err := os.MkdirAll(*workdir, 0o755)
		var dir string
		if err == nil {
			dir, err = os.MkdirTemp(*workdir, w.name+"-")
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		e := &env{seed: *seed, seconds: *seconds, trace: *trace == 1, sizes: sz, workdir: dir, workers: workers}
		res, err := runWorkload(context.Background(), w, e, *spans)
		os.RemoveAll(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		file.Results[w.name] = res
		last = res
	}
	if *out != "" {
		b, err := json.MarshalIndent(file, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	// The contract's result line: with one workload selected it is that
	// workload's result; with all, the last one's (use -out for the set).
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
