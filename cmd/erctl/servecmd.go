// The serve and shard subcommands: the networked deployment's two process
// roles, plus the deployment flags every subcommand shares.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"entityres/er"
	"entityres/internal/serve"
)

// deployFlags is the pipeline configuration shared by watch, serve and
// shard: what to resolve and how, independent of where it runs.
type deployFlags struct {
	kind      *string
	blocker   *string
	threshold *float64
	workers   *int
	weight    *string
	prune     *string
	snapEvery *int
	noSync    *bool
	src0      *string
	src1      *string
	idcol     *string
}

func registerDeployFlags(fs *flag.FlagSet) *deployFlags {
	return &deployFlags{
		kind:      fs.String("kind", "dirty", "dirty or cleanclean"),
		blocker:   fs.String("blocker", "token", "streamable blocking method: token, standard or qgrams"),
		threshold: fs.Float64("threshold", 0.4, "match similarity threshold"),
		workers:   fs.Int("workers", 0, "delta-matching workers (0 = 1)"),
		weight:    fs.String("weight", "", "live meta-blocking weight scheme: CBS, ECBS or JS ('' disables)"),
		prune:     fs.String("prune", "WNP", "live meta-blocking prune scheme: WEP or WNP"),
		snapEvery: fs.Int("snapshot-every", 0, "ops between WAL snapshot compactions (0 = default; durable deployments only)"),
		noSync:    fs.Bool("wal-nosync", false, "skip the per-op fsync on the WAL (durable deployments only)"),
		src0:      fs.String("src0", "", "source file to preload as source 0: N-Triples, CSV or JSON-lines by extension"),
		src1:      fs.String("src1", "", "source file to preload as source 1 (requires -src0)"),
		idcol:     fs.String("idcol", "", "ID column of tabular source files ('' = \"id\")"),
	}
}

// config renders the flags as an er.Config; the caller fills in the
// deployment axes (Dir, Shards, Addrs).
func (d *deployFlags) config() (er.Config, error) {
	cfg := er.Config{
		Matcher: &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: *d.threshold},
		Workers: *d.workers,
		Durable: er.StreamingDurable{SnapshotEvery: *d.snapEvery, NoSync: *d.noSync},
	}
	switch strings.ToLower(*d.kind) {
	case "dirty":
		cfg.Kind = er.Dirty
	case "cleanclean", "clean-clean":
		cfg.Kind = er.CleanClean
	default:
		return cfg, fmt.Errorf("unknown kind %q", *d.kind)
	}
	switch strings.ToLower(*d.blocker) {
	case "token":
		cfg.Blocker = &er.TokenBlocking{}
	case "standard":
		cfg.Blocker = &er.StandardBlocking{}
	case "qgrams":
		cfg.Blocker = &er.QGramsBlocking{}
	default:
		return cfg, fmt.Errorf("blocker %q cannot stream (need token, standard or qgrams)", *d.blocker)
	}
	if *d.weight != "" {
		w, err := parseWeight(*d.weight)
		if err != nil {
			return cfg, err
		}
		p, err := parsePrune(*d.prune)
		if err != nil {
			return cfg, err
		}
		// er.Open validates stream-safety (WEP/WNP × CBS/ECBS/JS) and
		// reports the specific reason a batch-only scheme cannot stream.
		cfg.Meta = &er.MetaBlocker{Weight: w, Prune: p}
	}
	if *d.src1 != "" && *d.src0 == "" {
		return cfg, fmt.Errorf("-src1 requires -src0")
	}
	if *d.src0 != "" {
		cfg.Sources = append(cfg.Sources, er.Source{
			Path: *d.src0, Tabular: er.TabularOptions{IDColumn: *d.idcol},
		})
	}
	if *d.src1 != "" {
		cfg.Sources = append(cfg.Sources, er.Source{
			Path: *d.src1, Index: 1, Tabular: er.TabularOptions{IDColumn: *d.idcol},
		})
	}
	return cfg, nil
}

// shardCmd runs one shard server of a networked deployment until
// SIGINT/SIGTERM.
func shardCmd(args []string) {
	fs := flag.NewFlagSet("erctl shard", flag.ExitOnError)
	df := registerDeployFlags(fs)
	var (
		addr   = fs.String("addr", "", "listen address, e.g. 127.0.0.1:7701 (required)")
		index  = fs.Int("index", 0, "this shard's index in the deployment")
		shards = fs.Int("shards", 0, "total shard count of the deployment (required)")
		dir    = fs.String("dir", "", "durable WAL directory for this shard ('' = in-memory)")
	)
	_ = fs.Parse(args)
	if *addr == "" || *shards < 1 {
		fmt.Fprintln(os.Stderr, "erctl shard: -addr and -shards are required")
		os.Exit(2)
	}
	cfg, err := df.config()
	if err != nil {
		fail(err)
	}
	cfg.Shards = *shards
	srv, err := er.NewShardServer(*dir, cfg, *index)
	if err != nil {
		fail(err)
	}
	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	fmt.Printf("shard %d/%d serving on %s (wal: %s)\n", *index, *shards, lis.Addr(), orMemory(*dir))
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	select {
	case <-ctx.Done():
		fmt.Println("shutting down")
		if err := srv.Close(); err != nil {
			fail(err)
		}
		<-done
	case err := <-done:
		if err != nil {
			fail(err)
		}
	}
}

// serveCmd opens a deployment, optionally preloads an ops log, and exposes
// it as the HTTP/JSON query service until SIGINT/SIGTERM, then drains.
func serveCmd(args []string) {
	fs := flag.NewFlagSet("erctl serve", flag.ExitOnError)
	df := registerDeployFlags(fs)
	var (
		addr       = fs.String("addr", "127.0.0.1:7700", "HTTP listen address")
		opsPath    = fs.String("ops", "", "JSON-lines operation log to preload before serving")
		shardsN    = fs.Int("stream-shards", 0, "in-process shards (0 or 1 = single-node)")
		shardAddrs = fs.String("shard-addrs", "", "comma-separated shard server addresses: drive a networked deployment (see erctl shard)")
		walDir     = fs.String("wal", "", "durable WAL directory (the coordinator journal with -shard-addrs)")
		maxInFl    = fs.Int("max-inflight", 0, "admission control: max concurrently admitted requests (0 = default 64)")
		reqTimeout = fs.Duration("request-timeout", 0, "admission control: per-request deadline (0 = default 5s)")
		drainTime  = fs.Duration("drain-timeout", 0, "graceful drain bound on shutdown (0 = default 10s)")
		maxBatch   = fs.Int("max-batch-ops", 0, "bulk ingest: max operations per POST /v1/ops request, larger batches get 413 (0 = default 4096)")
		maxQueued  = fs.Int("max-queued-ops", 0, "bulk ingest back-pressure: max admitted-but-unapplied operations before 429 + Retry-After (0 = default 8192)")
		coalWindow = fs.Duration("coalesce-window", 0, "ingest coalescing: time window singleton POST /v1/ops requests wait to merge into one server-formed batch (0 with -coalesce-max 0 = off; set either to enable, window defaults to 2ms)")
		coalMax    = fs.Int("coalesce-max", 0, "ingest coalescing: batch size that flushes the window early (0 with -coalesce-window 0 = off; defaults to 256 when enabled)")
	)
	_ = fs.Parse(args)
	cfg, err := df.config()
	if err != nil {
		fail(err)
	}
	cfg.Dir = *walDir
	cfg.Shards = *shardsN
	if *shardAddrs != "" {
		cfg.Addrs = strings.Split(*shardAddrs, ",")
		if cfg.Shards == 0 {
			cfg.Shards = len(cfg.Addrs)
		}
	}
	ctx := context.Background()
	r, err := er.Open(ctx, cfg)
	if err != nil {
		fail(err)
	}
	if *opsPath != "" {
		f, err := os.Open(*opsPath)
		if err != nil {
			fail(err)
		}
		ops, err := er.ReadStreamOps(bufio.NewReader(f))
		f.Close()
		if err != nil {
			fail(err)
		}
		st, err := r.Stats()
		if err != nil {
			fail(err)
		}
		// The -src0/-src1 records are the operation stream's fixed prefix:
		// what the deployment holds beyond them is replayed ops-log state.
		srcRecords := 0
		if len(cfg.Sources) > 0 {
			if srcRecords, err = er.SourceRecords(cfg.Sources); err != nil {
				fail(err)
			}
		}
		skip := int(st.Inserts+st.Updates+st.Deletes) - srcRecords
		if skip < 0 {
			skip = 0
		}
		if skip > len(ops) {
			fail(fmt.Errorf("deployment already holds %d ops but %s has only %d", skip, *opsPath, len(ops)))
		}
		for i, op := range ops[skip:] {
			if err := r.ApplyBatch(ctx, []er.StreamOp{op}); err != nil {
				fail(fmt.Errorf("preload op %d (%s %s): %w", skip+i+1, op.Kind, op.URI, err))
			}
		}
		if err := r.Flush(ctx); err != nil {
			fail(err)
		}
		loaded, err := r.Stats()
		if err != nil {
			fail(err)
		}
		fmt.Printf("preloaded %d ops: %s\n", len(ops)-skip, loaded)
	}

	srv := serve.NewServer(r, serve.Options{
		MaxInFlight:    *maxInFl,
		RequestTimeout: *reqTimeout,
		DrainTimeout:   *drainTime,
		MaxBatchOps:    *maxBatch,
		MaxQueuedOps:   *maxQueued,
		CoalesceWindow: *coalWindow,
		CoalesceMax:    *coalMax,
	})
	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	fmt.Printf("query service on http://%s (deployment: %s)\n", lis.Addr(), deploymentName(cfg))
	sctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	select {
	case <-sctx.Done():
		fmt.Println("draining")
		dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Drain(dctx); err != nil {
			fail(err)
		}
		<-done
	case err := <-done:
		if err != nil {
			fail(err)
		}
	}
	if err := r.Close(); err != nil {
		fail(err)
	}
}

func deploymentName(cfg er.Config) string {
	switch {
	case len(cfg.Addrs) > 0:
		return fmt.Sprintf("networked, %d shards", len(cfg.Addrs))
	case cfg.Shards > 1:
		return fmt.Sprintf("sharded, %d shards", cfg.Shards)
	case cfg.Dir != "":
		return "single-node, durable"
	}
	return "single-node"
}

func orMemory(dir string) string {
	if dir == "" {
		return "in-memory"
	}
	return dir
}
