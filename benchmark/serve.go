package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"entityres/er"
	"entityres/internal/serve"
)

// serve is the only workload where the HTTP service, the wire transport,
// the sharded coordinator and its journal do the work, with the matcher
// amortized by batching. Its users are independent, so the load is open
// loop: a writer posts one 64-op batch every 250 ms and a reader looks one
// description up every 2.5 ms, each on its own connection, each request
// timed from when it was due.

var serveWorkload = &workload{
	name: "serve",
	why:  "open-loop HTTP load on a networked 2-shard deployment (fsync on): one 64-op POST every 250 ms, lookups at 400/s; serve, transport, sharded and the coordinator journal do the work",
	// A lookup is slow when it is due while a 64-op batch applies: about
	// 14 % of lookups wait, spread evenly over 0 to 40 ms, so every percentile
	// past the 86th moves 2.7 ms for 1 % of lookups, and the tail is set by
	// the 48 applies of a run. No percentile up there repeats within a
	// quarter from run to run; the read tail therefore repeats the median
	// and the traced run reports the p99 as serve.lookup_p99_us, unbounded.
	round:     serveRound,
	attribute: serveLevels,
}

const (
	serveBatchOps   = 64
	servePostEvery  = 250 * time.Millisecond
	serveReadEvery  = 2500 * time.Microsecond
	serveLimit      = time.Second // a reply later than this counts as failed
	serveShards     = 2
	servePreloadOps = 256 // ops per preload batch, as er.Open's own source preload uses
)

// servePlan is the seeded input of a serve round: the stream of the live
// workloads cut into 64-op batches, the request bodies ready to post, and
// the URIs the reader may look up (preloaded and never deleted).
type servePlan struct {
	*livePlan
	batches  [][]er.StreamOp
	bodies   [][]byte
	readable []string
}

func planServe(e *env) (*servePlan, error) {
	lp, err := planLive(e.seed, e.sizes.serveEntities, e.sizes.servePosts*serveBatchOps)
	if err != nil {
		return nil, err
	}
	p := &servePlan{livePlan: lp}
	var batch []er.StreamOp
	for _, op := range lp.ops {
		if op.kind > opDelete {
			continue // the reader has its own schedule
		}
		rec := lp.recs[op.rec]
		so := er.StreamOp{URI: rec.URI}
		switch op.kind {
		case opInsert:
			so.Kind, so.Attrs = er.StreamInsert, rec.Attrs
		case opUpdate:
			so.Kind, so.Attrs = er.StreamUpdate, op.attrs
		default:
			so.Kind = er.StreamDelete
		}
		if batch = append(batch, so); len(batch) == serveBatchOps {
			p.batches = append(p.batches, batch)
			batch = nil
		}
	}
	if len(p.batches) != e.sizes.servePosts {
		return nil, fmt.Errorf("planned %d batches, want %d", len(p.batches), e.sizes.servePosts)
	}
	for _, b := range p.batches {
		req := serve.OpsRequestJSON{Ops: make([]serve.OpJSON, len(b))}
		for i, op := range b {
			j := serve.OpJSON{Op: op.Kind.String(), URI: op.URI}
			for _, a := range op.Attrs {
				j.Attrs = append(j.Attrs, serve.AttrJSON{Name: a.Name, Value: a.Value})
			}
			req.Ops[i] = j
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		p.bodies = append(p.bodies, body)
	}
	deleted := make(map[int]bool)
	for _, op := range lp.ops {
		if op.kind == opDelete {
			deleted[op.rec] = true
		}
	}
	for i := 0; i < lp.preload; i++ {
		if !deleted[i] {
			p.readable = append(p.readable, lp.recs[i].URI)
		}
	}
	return p, nil
}

// copyOps gives a deployment its own attribute slices, as a request
// decoded from the wire would.
func copyOps(ops []er.StreamOp) []er.StreamOp {
	out := make([]er.StreamOp, len(ops))
	for i, op := range ops {
		out[i] = op
		out[i].Attrs = append([]er.Attribute(nil), op.Attrs...)
	}
	return out
}

// Deployment levels, innermost first: each adds one layer around the one
// before, so the difference between two levels' batch latencies is the
// outer layer's own cost.
const (
	levelSingle    = iota // er.Open{Dir}: incremental + wal
	levelSharded          // er.Open{Dir, Shards: 2}: + sharded
	levelNetworked        // er.Open{Dir, Addrs}: + transport
	levelHTTP             // serve.NewServer over the networked resolver: + serve
)

// deployment is one running level: the resolver, the HTTP base URL when the
// level has one, and everything to stop.
type deployment struct {
	res   er.Resolver
	base  string
	stops []func()
}

// stop shuts the level down outermost first and waits for every server
// goroutine to return.
func (d *deployment) stop() {
	for i := len(d.stops) - 1; i >= 0; i-- {
		d.stops[i]()
	}
}

// deploy opens level under dir, durable with fsync on at every node, and
// preloads it.
func deploy(ctx context.Context, e *env, dir string, level int, plan *servePlan) (d *deployment, err error) {
	d = &deployment{}
	defer func() {
		if err != nil {
			d.stop()
		}
	}()
	cfg := er.Config{Kind: er.Dirty, Blocker: &er.TokenBlocking{}, Matcher: liveMatcher(), Workers: e.workers,
		Dir: filepath.Join(dir, "coordinator")}
	switch level {
	case levelSingle:
	case levelSharded:
		cfg.Shards = serveShards
	default:
		shardCfg := cfg
		shardCfg.Dir, shardCfg.Shards = "", serveShards
		for i := 0; i < serveShards; i++ {
			srv, err := er.NewShardServer(filepath.Join(dir, fmt.Sprintf("shard-%d", i)), shardCfg, i)
			if err != nil {
				return nil, err
			}
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				srv.Close()
				return nil, err
			}
			done := make(chan struct{})
			go func() { defer close(done); srv.Serve(lis) }() // Serve returns once Close runs
			d.stops = append(d.stops, func() { srv.Close(); <-done })
			cfg.Addrs = append(cfg.Addrs, lis.Addr().String())
		}
	}
	if d.res, err = er.Open(ctx, cfg); err != nil {
		return nil, err
	}
	d.stops = append(d.stops, func() { d.res.Close() })
	recs := plan.recs[:plan.preload]
	for len(recs) > 0 {
		n := min(len(recs), servePreloadOps)
		if err := d.res.ApplyBatch(ctx, insertOps(recs[:n])); err != nil {
			return nil, err
		}
		recs = recs[n:]
	}
	if level == levelHTTP {
		srv := serve.NewServer(d.res, serve.Options{})
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		done := make(chan struct{})
		go func() { defer close(done); srv.Serve(lis) }() // Serve returns once Drain runs
		d.stops = append(d.stops, func() { srv.Drain(context.Background()); <-done })
		d.base = "http://" + lis.Addr().String()
	}
	return d, nil
}

// newClient is one load-generator connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}, Timeout: 10 * time.Second}
}

// request sends one request and drains the reply; ok means 200.
func request(c *http.Client, method, target string, body []byte) (bool, error) {
	req, err := http.NewRequest(method, target, bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return false, err
	}
	return resp.StatusCode == http.StatusOK, nil
}

// openLoop issues n requests, the i-th due at start + i*every, and returns
// each one's latency from its due time in µs, how many failed (refused,
// errored or later than serveLimit) and how late the generator ever sent.
func openLoop(tr *tracer, root int, span string, start time.Time, every time.Duration, n int, send func(i int) (bool, error)) (us []float64, failed int64, maxLate time.Duration) {
	// The generator sleeps in nanosleep on a thread of its own: the Go
	// timer wakes an idle process up to a millisecond late, which at a
	// 2.5 ms period would be most of the latency a lookup reports.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * every)
		if d := time.Until(due); d > 0 {
			ts := syscall.NsecToTimespec(d.Nanoseconds())
			syscall.Nanosleep(&ts, nil) // an early wake-up only sends early by the remainder
		}
		if late := time.Since(due); late > maxLate {
			maxLate = late
		}
		s := tr.begin(span, root)
		ok, err := send(i)
		tr.end(s)
		lat := time.Since(due)
		switch {
		case err != nil:
			fmt.Fprintf(os.Stderr, "serve: %s %d failed: %v\n", span, i, err)
		case !ok:
			fmt.Fprintf(os.Stderr, "serve: %s %d was refused\n", span, i)
		case lat > serveLimit:
			fmt.Fprintf(os.Stderr, "serve: %s %d answered %v after it was due\n", span, i, lat)
		default:
			us = append(us, lat.Seconds()*1e6)
			continue
		}
		failed++
	}
	return
}

func serveRound(ctx context.Context, e *env, tr *tracer, check bool) (*round, error) {
	t0 := time.Now()
	plan, err := planServe(e)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.workdir, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	d, err := deploy(ctx, e, dir, levelHTTP, plan)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	perfBefore := d.res.(er.PerfReporter).Perf()
	bytesBefore := dirBytes(dir)
	netBefore := d.res.(er.ShardRejoiner).TransportStats()
	writer, reader := newClient(), newClient()
	defer writer.CloseIdleConnections()
	defer reader.CloseIdleConnections()
	// One request each opens the two connections before the clock starts.
	for _, c := range []*http.Client{writer, reader} {
		if ok, err := request(c, http.MethodGet, d.base+"/v1/lookup?uri="+url.QueryEscape(plan.readable[0]), nil); err != nil || !ok {
			return nil, fmt.Errorf("warm-up lookup failed: ok=%v err=%v", ok, err)
		}
	}
	rng := rand.New(rand.NewSource(e.seed ^ 0x7265616473))
	posts := len(plan.bodies)
	gets := int(time.Duration(posts) * servePostEvery / serveReadEvery)
	targets := make([]string, gets)
	for i := range targets {
		targets[i] = d.base + "/v1/lookup?uri=" + url.QueryEscape(plan.readable[rng.Intn(len(plan.readable))])
	}
	r := &round{setupS: time.Since(t0).Seconds()}
	runtime.GC() // every round starts its timed region from a collected heap

	var sampler *heapSampler
	if tr != nil {
		sampler = startHeapSampler()
	}
	root := tr.begin("loadgen.open_loop", -1)
	mem := startMem()
	start := time.Now()
	var wg sync.WaitGroup
	var writeFailed, readFailed int64
	var writeLate, readLate time.Duration
	wg.Add(2)
	go func() {
		defer wg.Done()
		r.writeUS, writeFailed, writeLate = openLoop(tr, root, "serve.post_ops", start, servePostEvery, posts, func(i int) (bool, error) {
			return request(writer, http.MethodPost, d.base+"/v1/ops", plan.bodies[i])
		})
	}()
	go func() {
		defer wg.Done()
		r.readUS, readFailed, readLate = openLoop(tr, root, "serve.lookup", start, serveReadEvery, gets, func(i int) (bool, error) {
			return request(reader, http.MethodGet, targets[i], nil)
		})
	}()
	wg.Wait()
	r.wallS = time.Since(start).Seconds()
	r.allocMB, _ = mem.stop()
	tr.end(root)
	r.attempted = int64(posts + gets)
	r.failed = writeFailed + readFailed
	r.units = float64(len(r.writeUS) * serveBatchOps)

	if err := d.res.Flush(ctx); err != nil {
		return nil, err
	}
	st, err := d.res.Stats()
	if err != nil {
		return nil, err
	}
	r.comparisons = st.Comparisons
	pairs, err := servePairs(ctx, d.res, plan.livePlan)
	if err != nil {
		return nil, err
	}
	r.digest = pairDigest(plan.livePlan, pairs)
	r.f1, r.recall = pairQuality(pairs, plan.truth)
	if check {
		want, err := oracleDigest(plan.livePlan, er.Config{Matcher: liveMatcher()})
		if err != nil {
			return nil, err
		}
		if want != r.digest {
			return nil, fmt.Errorf("served matches differ from the batch oracle over the survivors: %s vs %s", r.digest, want)
		}
	}
	if tr != nil {
		r.layers = map[string]float64{"loadgen.max_late_ms": max(writeLate, readLate).Seconds() * 1e3}
		r.layers["process.peak_heap_mb"], r.layers["process.gc_pause_ms"] = sampler.finish()
		blockingLayers(plan.livePlan, r)
		r.layers["serve.lookup_p50_us"] = median(tr.durationsUS()["serve.lookup"])
		r.layers["serve.lookup_p99_us"] = percentile(r.readUS, 99)
		perf := d.res.(er.PerfReporter).Perf()
		netStats := d.res.(er.ShardRejoiner).TransportStats()
		trips := float64(perf.TransportRoundTrips - perfBefore.TransportRoundTrips)
		r.layers["transport.round_trips"] = trips
		r.layers["transport.round_trips_per_batch"] = trips / float64(posts)
		r.layers["transport.full_ops"] = float64(netStats.FullOps - netBefore.FullOps)
		r.layers["transport.advance_ops"] = float64(netStats.AdvanceOps - netBefore.AdvanceOps)
		r.layers["sharded.fan_outs"] = float64(perf.FanOuts - perfBefore.FanOuts)
		r.layers["wal.journal_appends"] = float64(perf.JournalAppends - perfBefore.JournalAppends)
		bytes := dirBytes(dir) - bytesBefore
		r.layers["wal.bytes_written"] = float64(bytes)
		r.layers["wal.bytes_per_user_byte"] = float64(bytes) / float64(plan.userBytes)
		r.layers["matching.matches"] = float64(st.Matches)
		r.layers["graph.clusters"] = float64(st.Clusters)
		var stats serve.StatsJSON
		if err := getJSON(reader, d.base+"/v1/stats", &stats); err != nil {
			return nil, err
		}
		r.layers["serve.requests"] = float64(stats.Server.Queries + stats.Server.IngestRequests)
		r.layers["serve.refused"] = float64(stats.Server.Refused + stats.Server.IngestRefused)
	}
	return r, nil
}

func getJSON(c *http.Client, target string, v any) error {
	resp, err := c.Get(target)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", target, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// servePairs reads the final match set back by URI, which is how a served
// deployment is addressed.
func servePairs(ctx context.Context, res er.Resolver, plan *livePlan) ([][2]int, error) {
	ids := make([]er.ID, len(plan.recs))
	for i, rec := range plan.recs {
		if plan.final[i] == nil {
			continue
		}
		q, err := res.Query(ctx, er.Query{URI: rec.URI})
		if err != nil {
			return nil, fmt.Errorf("query %s: %w", rec.URI, err)
		}
		ids[i] = q.ID
	}
	return livePairs(ctx, res, plan, ids)
}

// serveLevels attributes a served batch to its layers: the round's own
// 64-op batches, back to back, at the four nested levels. A level's p50
// minus the level inside it is that layer's own cost per batch. The same
// leg times lookups over HTTP and as direct Query calls.
func serveLevels(ctx context.Context, e *env, _ *round) (map[string]float64, error) {
	plan, err := planServe(e)
	if err != nil {
		return nil, err
	}
	p50 := make([]float64, levelHTTP+1)
	out := make(map[string]float64)
	for level := levelSingle; level <= levelHTTP; level++ {
		dir, err := os.MkdirTemp(e.workdir, "level-")
		if err != nil {
			return nil, err
		}
		d, err := deploy(ctx, e, dir, level, plan)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		client := newClient()
		us := make([]float64, len(plan.batches))
		for i, batch := range plan.batches {
			t := time.Now()
			if level == levelHTTP {
				var ok bool
				if ok, err = request(client, http.MethodPost, d.base+"/v1/ops", plan.bodies[i]); err == nil && !ok {
					err = fmt.Errorf("POST /v1/ops refused")
				}
			} else {
				err = d.res.ApplyBatch(ctx, copyOps(batch))
			}
			if err != nil {
				break
			}
			us[i] = time.Since(t).Seconds() * 1e6
		}
		if err == nil && level == levelHTTP {
			out["serve.http_self_us"], err = lookupSelf(ctx, d, client, plan)
		}
		client.CloseIdleConnections()
		d.stop()
		os.RemoveAll(dir)
		if err != nil {
			return nil, fmt.Errorf("level %d: %w", level, err)
		}
		p50[level] = median(us)
	}
	out["incremental.apply_batch64_p50_us"] = p50[levelSingle]
	out["sharded.apply_batch64_p50_us"] = p50[levelSharded]
	out["sharded.self_us_per_batch"] = p50[levelSharded] - p50[levelSingle]
	out["transport.apply_batch64_p50_us"] = p50[levelNetworked]
	out["transport.self_us_per_batch"] = p50[levelNetworked] - p50[levelSharded]
	out["serve.post_ops_p50_us"] = p50[levelHTTP]
	return out, nil
}

// lookupSelf is the HTTP layer's own cost of a lookup: the p50 over HTTP
// minus the p50 of the same lookups as direct Query calls.
func lookupSelf(ctx context.Context, d *deployment, c *http.Client, plan *servePlan) (float64, error) {
	const lookups = 512
	direct, served := make([]float64, lookups), make([]float64, lookups)
	for i := range direct {
		uri := plan.readable[i%len(plan.readable)]
		t := time.Now()
		if _, err := d.res.Query(ctx, er.Query{URI: uri}); err != nil {
			return 0, err
		}
		direct[i] = time.Since(t).Seconds() * 1e6
		t = time.Now()
		if ok, err := request(c, http.MethodGet, d.base+"/v1/lookup?uri="+url.QueryEscape(uri), nil); err != nil || !ok {
			return 0, fmt.Errorf("lookup of %s failed: ok=%v err=%v", uri, ok, err)
		}
		served[i] = time.Since(t).Seconds() * 1e6
	}
	return median(served) - median(direct), nil
}
