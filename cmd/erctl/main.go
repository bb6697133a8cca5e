// Command erctl runs a configurable end-to-end resolution pipeline over
// N-Triples, CSV or JSON-lines knowledge bases and reports the matches
// and, when a truth file is given, the output quality.
//
// Usage:
//
//	erctl -kb0 FILE [-kb1 FILE] [-truth FILE]
//	      [-format rdf|csv|jsonl] [-idcol NAME] [-export DIR]
//	      [-blocker token|attrclustering|standard|qgrams|sortednbhd]
//	      [-weight ARCS|CBS|ECBS|JS|EJS] [-prune WNP|WEP|CEP|CNP]
//	      [-threshold T] [-mode batch|swoosh|iterblock|progressive|streaming]
//	      [-budget N] [-print-matches]
//
//	erctl watch -ops FILE [-kind dirty|cleanclean]
//	      [-src0 FILE [-src1 FILE] [-idcol NAME]]
//	      [-blocker token|standard|qgrams] [-threshold T] [-workers N]
//	      [-weight CBS|ECBS|JS] [-prune WEP|WNP]
//	      [-stats-every N] [-print-matches]
//	      [-batch N] [-stream-shards N]
//	      [-wal DIR [-snapshot-every N] [-wal-nosync]]
//
//	erctl shard -addr HOST:PORT -index I -shards N [-dir DIR]
//	      [-kind ...] [-blocker ...] [-threshold T] [-workers N]
//	      [-weight ...] [-prune ...] [-snapshot-every N] [-wal-nosync]
//
//	erctl serve -addr HOST:PORT [-ops FILE]
//	      [-src0 FILE [-src1 FILE] [-idcol NAME]]
//	      [-stream-shards N | -shard-addrs A,B,...] [-wal DIR]
//	      [-max-inflight N] [-request-timeout D] [-drain-timeout D]
//	      [-max-batch-ops N] [-max-queued-ops N]
//	      [-kind ...] [-blocker ...] [-threshold T] [-workers N]
//	      [-weight ...] [-prune ...] [-snapshot-every N] [-wal-nosync]
//
// With one -kb0 the collection is dirty (deduplication); with -kb1 it is
// clean-clean (interlinking). KB files may be N-Triples (.nt), CSV (.csv)
// or JSON-lines (.jsonl/.ndjson) — the format is inferred from the
// extension unless -format overrides it, and -idcol names the tabular ID
// column when it is not "id". The truth file holds one tab-separated URI
// pair per line. With -export DIR a clean-clean run also writes one
// interlinking export per source (matches.source0.tsv, matches.source1.tsv:
// each line a source URI and its comma-joined partner URIs).
//
// The watch and serve subcommands accept the same source files via -src0
// and -src1: the sources are preloaded through the deployment's batch
// ingest path before the ops log replays, and a durable restart skips the
// already-loaded prefix exactly like ops-log resumption.
//
// The watch subcommand replays a JSON-lines operation log (one
// {"op":"insert|update|delete","uri":...,"source":...,"attrs":[...]}
// object per line) through the streaming resolver, maintaining matches and
// clusters incrementally and reporting state as the stream advances. With
// -batch N the log is applied in chunks of N operations through the
// amortized batch path (one lock, one journal append, one fan-out per
// chunk) — results are bit-exact with the per-op replay. With
// -stream-shards N the blocking-key space is hash-partitioned across N
// shard resolvers with coordinator-merged reads — results are bit-exact
// with the single-node replay for every N. With -wal DIR the resolver is
// durable: every op is journaled to a write-ahead log in DIR (one
// shard-%03d WAL directory per shard when sharded, group-commit fsync
// batching) before it is applied and compacted into snapshots, and
// restarting the same command resumes the replay where the previous run
// stopped — crash recovery restores the journaled state and the
// already-applied prefix of the ops log is skipped.
//
// The shard subcommand runs one shard server of a networked deployment:
// it owns a partition of the blocking-key space and answers the routed op
// stream a coordinator drives over the wire protocol. The serve subcommand
// opens any deployment form — single-node, sharded, or a networked
// coordinator over -shard-addrs — optionally preloads an ops log, and
// exposes it as the HTTP/JSON query service (lookup, same-as, cluster,
// stats) with admission control and graceful drain on SIGINT/SIGTERM.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"entityres/er"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "watch":
			watch(os.Args[2:])
			return
		case "serve":
			serveCmd(os.Args[2:])
			return
		case "shard":
			shardCmd(os.Args[2:])
			return
		}
	}
	var (
		kb0       = flag.String("kb0", "", "first KB: N-Triples, CSV or JSON-lines (required)")
		kb1       = flag.String("kb1", "", "second KB for clean-clean resolution")
		format    = flag.String("format", "", "KB format: rdf, csv or jsonl ('' = infer from extension)")
		idcol     = flag.String("idcol", "", "ID column of tabular KBs ('' = \"id\")")
		export    = flag.String("export", "", "directory for per-source interlinking exports (clean-clean only)")
		truth     = flag.String("truth", "", "tab-separated URI pairs for evaluation")
		blockerNm = flag.String("blocker", "token", "blocking method")
		weightNm  = flag.String("weight", "ARCS", "meta-blocking weight scheme ('' disables)")
		pruneNm   = flag.String("prune", "WNP", "meta-blocking prune scheme")
		threshold = flag.Float64("threshold", 0.4, "match similarity threshold")
		mode      = flag.String("mode", "batch", "batch, swoosh, iterblock or progressive")
		budget    = flag.Int64("budget", 0, "progressive comparison budget (0 = unlimited)")
		printAll  = flag.Bool("print-matches", false, "print matched URI pairs")
	)
	flag.Parse()
	if *kb0 == "" {
		fmt.Fprintln(os.Stderr, "erctl: -kb0 is required")
		os.Exit(2)
	}
	kind := er.Dirty
	if *kb1 != "" {
		kind = er.CleanClean
	}
	c := er.NewCollection(kind)
	if err := load(c, *kb0, 0, *format, *idcol); err != nil {
		fail(err)
	}
	if *kb1 != "" {
		if err := load(c, *kb1, 1, *format, *idcol); err != nil {
			fail(err)
		}
	}
	if *export != "" && kind != er.CleanClean {
		fail(fmt.Errorf("-export needs a clean-clean run (pass -kb1)"))
	}

	pipe := &er.Pipeline{
		Processors: []er.BlockProcessor{&er.SizePurge{}},
		Matcher:    &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: *threshold},
	}
	switch strings.ToLower(*blockerNm) {
	case "token":
		pipe.Blocker = &er.TokenBlocking{}
	case "attrclustering":
		pipe.Blocker = &er.AttributeClustering{}
	case "standard":
		pipe.Blocker = &er.StandardBlocking{}
	case "qgrams":
		pipe.Blocker = &er.QGramsBlocking{}
	case "sortednbhd":
		pipe.Blocker = &er.SortedNeighborhood{}
	default:
		fail(fmt.Errorf("unknown blocker %q", *blockerNm))
	}
	if *weightNm != "" {
		w, err := parseWeight(*weightNm)
		if err != nil {
			fail(err)
		}
		p, err := parsePrune(*pruneNm)
		if err != nil {
			fail(err)
		}
		pipe.Meta = &er.MetaBlocker{Weight: w, Prune: p}
	}
	switch strings.ToLower(*mode) {
	case "batch":
		pipe.Mode = er.Batch
	case "swoosh":
		pipe.Mode = er.MergingIterative
		pipe.Matcher.Sim = &er.TokenContainment{}
	case "iterblock":
		pipe.Mode = er.IterativeBlocks
		pipe.Matcher.Sim = &er.TokenContainment{}
	case "progressive":
		pipe.Mode = er.ProgressiveMode
		pipe.Budget = *budget
	case "streaming":
		// Streaming replays the loaded collection through the incremental
		// resolver. Block cleaning is collection-global and dropped.
		// Meta-blocking streams for the stream-safe subset (WEP/WNP ×
		// CBS/ECBS/JS): an explicitly chosen configuration is passed
		// through — a batch-only scheme fails with its specific validation
		// error — while the implicit batch default (ARCS/WNP) is dropped
		// so plain streaming runs keep working.
		pipe.Mode = er.StreamingMode
		if len(pipe.Processors) > 0 {
			fmt.Fprintln(os.Stderr, "erctl: streaming mode ignores block cleaning")
		}
		pipe.Processors = nil
		// Only -weight opts in: like the watch subcommand, a lone -prune
		// leaves the batch-default (ARCS) weight in place, which would turn
		// a previously working streaming run into a validation failure the
		// user never asked for.
		explicitMeta := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "weight" {
				explicitMeta = true
			}
		})
		if pipe.Meta != nil && !explicitMeta {
			fmt.Fprintln(os.Stderr, "erctl: streaming mode drops the default batch-only meta-blocking; pass -weight CBS|ECBS|JS -prune WEP|WNP to prune the live frontier")
			pipe.Meta = nil
		}
	default:
		fail(fmt.Errorf("unknown mode %q", *mode))
	}

	res, err := pipe.Run(c)
	if err != nil {
		fail(err)
	}
	fmt.Printf("descriptions: %d, blocks: %d, comparisons: %d (exhaustive %d)\n",
		c.Len(), res.Blocks.Len(), res.Comparisons, c.TotalComparisons())
	fmt.Printf("matches: %d pairs, %d clusters\n", res.Matches.Len(), len(res.Clusters()))
	for _, ph := range res.Phases {
		fmt.Printf("phase %-16s %v\n", ph.Name, ph.Duration)
	}
	if *printAll {
		res.Matches.Each(func(p er.Pair) bool {
			fmt.Printf("%s\t%s\n", c.Get(p.A).URI, c.Get(p.B).URI)
			return true
		})
	}
	if *truth != "" {
		gt, err := loadTruth(c, *truth)
		if err != nil {
			fail(err)
		}
		fmt.Println("pair quality:   ", er.ComparePairs(res.Matches, gt))
		fmt.Println("cluster quality:", er.EvaluateClusters(c, res.Matches, gt))
	}
	if *export != "" {
		if err := exportSourceMatches(*export, c, res.Matches); err != nil {
			fail(err)
		}
	}
}

// exportSourceMatches writes each source's view of the interlinking
// result: one matches.sourceN.tsv per source, each line a URI of that
// source and the comma-joined sorted URIs of its partners.
func exportSourceMatches(dir string, c *er.Collection, m *er.Matches) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for s := 0; s < 2; s++ {
		path := filepath.Join(dir, fmt.Sprintf("matches.source%d.tsv", s))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		err = er.WriteSourceMatches(f, c, m, s)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("exported %s\n", path)
	}
	return nil
}

// watch replays an operation log through an er.Open deployment.
func watch(args []string) {
	fs := flag.NewFlagSet("erctl watch", flag.ExitOnError)
	df := registerDeployFlags(fs)
	var (
		opsPath    = fs.String("ops", "", "JSON-lines operation log (required)")
		batchN     = fs.Int("batch", 1, "apply the log in chunks of N ops through the amortized batch path (1 = per-op; results are bit-exact for every N)")
		statsEvery = fs.Int("stats-every", 0, "print resolver stats every N ops (0 = only at end)")
		printAll   = fs.Bool("print-matches", false, "print final matched URI pairs")
		shardsN    = fs.Int("stream-shards", 0, "shard the blocking-key space across N resolvers (0 or 1 = single-node; results are bit-exact for every N)")
		walDir     = fs.String("wal", "", "durable WAL directory: journal every op, compact into snapshots, and resume an interrupted replay of the same -ops log after restart (per-shard subdirectories with -stream-shards)")
	)
	_ = fs.Parse(args)
	if *opsPath == "" {
		fmt.Fprintln(os.Stderr, "erctl watch: -ops is required")
		os.Exit(2)
	}

	f, err := os.Open(*opsPath)
	if err != nil {
		fail(err)
	}
	ops, err := er.ReadStreamOps(bufio.NewReader(f))
	f.Close()
	if err != nil {
		fail(err)
	}

	cfg, err := df.config()
	if err != nil {
		fail(err)
	}
	cfg.Dir = *walDir
	cfg.Shards = *shardsN
	r, err := er.Open(context.Background(), cfg)
	if err != nil {
		fail(err)
	}
	// Durable replay: every applied op is journaled under -wal, and a
	// restart resumes where the previous run stopped — recovery restores
	// the journal's state, and the ops it already covers are skipped.
	// Resumption assumes the same -ops log; the skip count is the number
	// of operations the recovered state acknowledges beyond the -src0/-src1
	// records, which Open preloads as the stream's fixed prefix.
	srcRecords := 0
	if len(cfg.Sources) > 0 {
		n, err := er.SourceRecords(cfg.Sources)
		if err != nil {
			fail(err)
		}
		srcRecords = n
		fmt.Printf("preloaded %d source records\n", srcRecords)
	}
	skipped := 0
	stats := func() er.StreamingStats {
		st, err := r.Stats()
		if err != nil {
			fail(err)
		}
		return st
	}
	if st := stats(); int(st.Inserts+st.Updates+st.Deletes) > srcRecords {
		applied := int(st.Inserts+st.Updates+st.Deletes) - srcRecords
		if applied > len(ops) {
			fail(fmt.Errorf("wal %s holds %d applied ops but %s has only %d — resuming a different log?", *walDir, applied, *opsPath, len(ops)))
		}
		skipped = applied
		detail := ""
		if dr, ok := r.(er.DurableReporter); ok {
			replayed := 0
			for _, rec := range dr.Recovery() {
				replayed += rec.ReplayedRecords
			}
			detail = fmt.Sprintf(" (%d wal records replayed)", replayed)
		}
		fmt.Printf("resumed from %s: %d ops already applied%s\n", *walDir, applied, detail)
	}
	ctx := context.Background()
	if *batchN > 1 {
		// Amortized replay: the pending suffix goes through ApplyBatch in
		// chunks, each admitted whole (one journal append, one fan-out).
		// Stats are reported at chunk boundaries.
		for at := skipped; at < len(ops); at += *batchN {
			chunk := ops[at:min(at+*batchN, len(ops))]
			if err := r.ApplyBatch(ctx, chunk); err != nil {
				fail(fmt.Errorf("batch at op %d (%d ops): %w", at+1, len(chunk), err))
			}
			if n := at + len(chunk); *statsEvery > 0 && n < len(ops) && n/(*statsEvery) > at/(*statsEvery) {
				fmt.Printf("after %4d ops: %s\n", n, statsLine(stats(), cfg.Meta != nil))
			}
		}
	} else {
		for i, op := range ops[skipped:] {
			n := skipped + i + 1
			if err := r.ApplyBatch(ctx, []er.StreamOp{op}); err != nil {
				fail(fmt.Errorf("op %d (%s %s): %w", n, op.Kind, op.URI, err))
			}
			if *statsEvery > 0 && n%*statsEvery == 0 {
				fmt.Printf("after %4d ops: %s\n", n, statsLine(stats(), cfg.Meta != nil))
			}
		}
	}
	fmt.Printf("final: %s\n", statsLine(stats(), cfg.Meta != nil))
	if *printAll {
		printMatches(ctx, r, ops)
	}
	if err := r.Close(); err != nil {
		fail(err)
	}
}

// printMatches lists each matched URI pair once, walking the stream's
// insert URIs in order and querying their current match partners.
func printMatches(ctx context.Context, r er.Resolver, ops []er.StreamOp) {
	seen := map[string]bool{}
	for _, op := range ops {
		if op.Kind != er.StreamInsert || seen[op.URI] {
			continue
		}
		seen[op.URI] = true
		res, err := r.Query(ctx, er.Query{URI: op.URI})
		if err != nil {
			continue // deleted later in the stream
		}
		for _, partner := range res.SameAs {
			if partner <= res.ID {
				continue // the lower handle prints the pair
			}
			p, err := r.Query(ctx, er.Query{ID: partner})
			if err != nil {
				continue
			}
			fmt.Printf("%s\t%s\n", res.Description.URI, p.Description.URI)
		}
	}
}

// statsLine renders resolver stats, extending them with the live pruning
// counters when meta-blocking is active.
func statsLine(st er.StreamingStats, meta bool) string {
	if !meta {
		return st.String()
	}
	return fmt.Sprintf("%s kept=%d/%d candidate pairs", st, st.KeptPairs, st.CandidatePairs)
}

// load streams one KB file into the collection, inferring the parser from
// the extension unless format overrides it.
func load(c *er.Collection, path string, source int, format, idcol string) error {
	return er.ReadSource(c, er.Source{
		Path:    path,
		Format:  er.SourceFormat(strings.ToLower(format)),
		Index:   source,
		Tabular: er.TabularOptions{IDColumn: idcol},
	})
}

func loadTruth(c *er.Collection, path string) (*er.Matches, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return er.ReadTruthTSV(c, bufio.NewReader(f))
}

func parseWeight(s string) (er.WeightScheme, error) {
	switch strings.ToUpper(s) {
	case "CBS":
		return er.CBS, nil
	case "ECBS":
		return er.ECBS, nil
	case "JS":
		return er.JS, nil
	case "EJS":
		return er.EJS, nil
	case "ARCS":
		return er.ARCS, nil
	}
	return 0, fmt.Errorf("unknown weight scheme %q", s)
}

func parsePrune(s string) (er.PruneScheme, error) {
	switch strings.ToUpper(s) {
	case "WEP":
		return er.WEP, nil
	case "CEP":
		return er.CEP, nil
	case "WNP":
		return er.WNP, nil
	case "CNP":
		return er.CNP, nil
	}
	return 0, fmt.Errorf("unknown prune scheme %q", s)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "erctl:", err)
	os.Exit(1)
}
