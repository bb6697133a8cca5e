package transport_test

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"entityres/internal/blocking"
	"entityres/internal/datagen"
	"entityres/internal/entity"
	"entityres/internal/incremental"
	"entityres/internal/matching"
	"entityres/internal/metablocking"
	"entityres/internal/sharded"
	"entityres/internal/transport"
)

// The networked differential property: a coordinator driving shard servers
// over real TCP connections — full payloads routed to key owners only,
// slot-advance records elsewhere — lands on bit-identical matches,
// comparison counts, blocks and restructured blocks as the single-node
// streaming resolver, at every checkpoint of every op mix, while
// demonstrably delivering fewer full payloads than a replicating transport
// would. The in-process form (OpenLocal: the same coordinator over
// in-memory pipes to hosted shard servers) rides along in lockstep and must
// agree with both, delivery counters included.

// opMix weights the generator's choice between inserts, updates, deletes.
type opMix struct {
	name                   string
	insert, update, delete int
}

var opMixes = []opMix{
	{name: "insert-heavy", insert: 7, update: 2, delete: 1},
	{name: "churn", insert: 4, update: 3, delete: 3},
	{name: "delete-heavy", insert: 5, update: 1, delete: 4},
}

// pool generates the description universe an op stream draws from.
func pool(t *testing.T, kind entity.Kind, seed int64) []*entity.Description {
	t.Helper()
	var c *entity.Collection
	var err error
	if kind == entity.CleanClean {
		c, _, err = datagen.GenerateCleanClean(datagen.Config{Seed: seed, Entities: 60, DupRatio: 0.7})
	} else {
		c, _, err = datagen.GenerateDirty(datagen.Config{Seed: seed, Entities: 60, DupRatio: 0.7, MaxDuplicates: 2})
	}
	if err != nil {
		t.Fatal(err)
	}
	return c.All()
}

// mutate derives a deterministic attribute rewrite for an update.
func mutate(rng *rand.Rand, own, donor []entity.Attribute) []entity.Attribute {
	out := make([]entity.Attribute, 0, len(own))
	for _, a := range own {
		if rng.Intn(3) == 0 && len(donor) > 0 {
			d := donor[rng.Intn(len(donor))]
			out = append(out, entity.Attribute{Name: a.Name, Value: d.Value})
		} else {
			out = append(out, a)
		}
	}
	if len(donor) > 0 && rng.Intn(2) == 0 {
		out = append(out, donor[rng.Intn(len(donor))])
	}
	return out
}

// generateScript derives a deterministic URI-addressed op script honoring
// the mix.
func generateScript(t *testing.T, kind entity.Kind, seed int64, n int, mix opMix) []incremental.Op {
	t.Helper()
	descs := pool(t, kind, seed)
	rng := rand.New(rand.NewSource(seed * 104729))
	liveIdx := map[int]bool{}
	var liveList []int
	removeLive := func(pos int) {
		liveList[pos] = liveList[len(liveList)-1]
		liveList = liveList[:len(liveList)-1]
	}
	chooseOp := func() incremental.OpKind {
		if len(liveList) == 0 {
			return incremental.OpInsert
		}
		weights := [3]int{mix.insert, mix.update, mix.delete}
		if len(liveList) == len(descs) {
			weights[0] = 0
		}
		roll := rng.Intn(weights[0] + weights[1] + weights[2])
		if roll < weights[0] {
			return incremental.OpInsert
		}
		if roll < weights[0]+weights[1] {
			return incremental.OpUpdate
		}
		return incremental.OpDelete
	}
	ops := make([]incremental.Op, 0, n)
	for len(ops) < n {
		switch chooseOp() {
		case incremental.OpInsert:
			pi := rng.Intn(len(descs))
			if liveIdx[pi] {
				continue
			}
			ops = append(ops, incremental.Op{
				Kind: incremental.OpInsert, URI: descs[pi].URI,
				Source: descs[pi].Source, Attrs: descs[pi].Attrs,
			})
			liveIdx[pi] = true
			liveList = append(liveList, pi)
		case incremental.OpUpdate:
			pos := rng.Intn(len(liveList))
			pi := liveList[pos]
			donor := descs[rng.Intn(len(descs))]
			ops = append(ops, incremental.Op{
				Kind: incremental.OpUpdate, URI: descs[pi].URI,
				Attrs: mutate(rng, descs[pi].Attrs, donor.Attrs),
			})
		default:
			pos := rng.Intn(len(liveList))
			pi := liveList[pos]
			ops = append(ops, incremental.Op{Kind: incremental.OpDelete, URI: descs[pi].URI})
			delete(liveIdx, pi)
			removeLive(pos)
		}
	}
	return ops
}

// renderState renders a match set and its clusters deterministically.
func renderState(m *entity.Matches) string {
	ps := m.Pairs()
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].A != ps[j].A {
			return ps[i].A < ps[j].A
		}
		return ps[i].B < ps[j].B
	})
	return fmt.Sprintf("matches=%v\nclusters=%v\n", ps, m.Clusters())
}

// renderBlocks renders a block collection byte-exactly.
func renderBlocks(bs *blocking.Blocks) string {
	if bs == nil {
		return "<nil>"
	}
	var b strings.Builder
	for _, bl := range bs.All() {
		fmt.Fprintf(&b, "%s|%v|%v\n", bl.Key, bl.S0, bl.S1)
	}
	return b.String()
}

// addrBook maps stable shard names to the listener address currently
// serving that shard, so a restarted server (new ephemeral port) is
// reachable through the coordinator's unchanged address list.
type addrBook struct{ m sync.Map }

func (b *addrBook) set(name, addr string) { b.m.Store(name, addr) }

func (b *addrBook) dial(ctx context.Context, name string) (net.Conn, error) {
	v, ok := b.m.Load(name)
	if !ok {
		return nil, fmt.Errorf("no server registered for %q", name)
	}
	var d net.Dialer
	return d.DialContext(ctx, "tcp", v.(string))
}

// cluster is a set of shard servers on real TCP listeners plus the
// coordinator-side wiring to reach them.
type cluster struct {
	t       *testing.T
	cfg     sharded.Config
	book    *addrBook
	names   []string
	servers []*transport.ShardServer
	dirs    []string
}

// startCluster boots one shard server per shard. dirs[i] == "" runs shard i
// in memory; otherwise it opens durably under dirs[i].
func startCluster(t *testing.T, cfg sharded.Config, dirs []string) *cluster {
	t.Helper()
	c := &cluster{t: t, cfg: cfg, book: &addrBook{}, dirs: dirs,
		servers: make([]*transport.ShardServer, len(dirs))}
	for i := range dirs {
		c.names = append(c.names, fmt.Sprintf("shard-%d", i))
		c.startShard(i)
	}
	t.Cleanup(func() {
		for _, s := range c.servers {
			if s != nil {
				s.Close()
			}
		}
	})
	return c
}

// startShard (re)opens shard i's server on a fresh listener and registers
// its address.
func (c *cluster) startShard(i int) {
	c.t.Helper()
	srv, err := transport.NewShardServer(c.dirs[i], c.cfg, i)
	if err != nil {
		c.t.Fatalf("shard %d: %v", i, err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.t.Fatal(err)
	}
	c.book.set(c.names[i], lis.Addr().String())
	c.servers[i] = srv
	go srv.Serve(lis)
}

func (c *cluster) opts() transport.ClientOptions {
	return transport.ClientOptions{Timeout: 5 * time.Second, Attempts: 2, Dial: c.book.dial}
}

// open connects a coordinator to the cluster (dir "" = in-memory journal).
func (c *cluster) open(ctx context.Context, dir string) (*transport.Coordinator, error) {
	return transport.OpenCoordinator(ctx, dir, c.cfg, c.names, c.opts())
}

// assertCoordinatorEquals compares every acceptance observable of the
// networked coordinator against a reference resolver, bit for bit.
func assertCoordinatorEquals(t *testing.T, co *transport.Coordinator, ref interface {
	Stats() (incremental.Stats, error)
	Matches() (*entity.Matches, error)
	Blocks() *blocking.Blocks
	RestructuredBlocks() (*blocking.Blocks, error)
}, refName string, meta bool, step int) {
	t.Helper()
	if gs, ws := mustStats(t, co), mustStats(t, ref); gs != ws {
		t.Fatalf("step %d: stats diverge:\nnetworked %+v\n%-9s %+v", step, gs, refName, ws)
	}
	if g, w := renderState(mustMatches(t, co)), renderState(mustMatches(t, ref)); g != w {
		t.Fatalf("step %d: match state diverges:\nnetworked\n%s\n%s\n%s", step, g, refName, w)
	}
	if g, w := renderBlocks(co.Blocks()), renderBlocks(ref.Blocks()); g != w {
		t.Fatalf("step %d: blocks diverge:\nnetworked\n%s\n%s\n%s", step, g, refName, w)
	}
	if meta {
		if g, w := renderBlocks(mustRestructuredBlocks(t, co)), renderBlocks(mustRestructuredBlocks(t, ref)); g != w {
			t.Fatalf("step %d: restructured blocks diverge:\nnetworked\n%s\n%s\n%s", step, g, refName, w)
		}
	}
}

// transportDiffConfig is one networked differential scenario.
type transportDiffConfig struct {
	kind    entity.Kind
	blocker blocking.StreamableBlocker
	meta    *metablocking.MetaBlocker
	workers int
	shards  int
	seed    int64
	ops     int
	mix     opMix
}

func (dc transportDiffConfig) String() string {
	s := fmt.Sprintf("%s/%s/n%d/w%d/%s/seed%d", dc.kind, dc.blocker.Name(), dc.shards, dc.workers, dc.mix.name, dc.seed)
	if dc.meta != nil {
		s += "/" + dc.meta.Name()
	}
	return s
}

// runTransportDifferential drives one scenario: the same op script through
// the single-node resolver, the TCP deployment and the in-process (pipe)
// deployment, with lockstep reads and checkpoints.
func runTransportDifferential(t *testing.T, dc transportDiffConfig) {
	matcher := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
	script := generateScript(t, dc.kind, dc.seed, dc.ops, dc.mix)
	cfg := sharded.Config{
		Kind: dc.kind, Blocker: dc.blocker, Matcher: matcher,
		Workers: dc.workers, Meta: dc.meta, Shards: dc.shards,
	}
	single, err := incremental.New(incremental.Config{
		Kind: dc.kind, Blocker: dc.blocker, Matcher: matcher, Workers: dc.workers, Meta: dc.meta,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	inproc, err := transport.OpenLocal(ctx, "", cfg, transport.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer inproc.Close()
	cl := startCluster(t, cfg, make([]string, dc.shards))
	co, err := cl.open(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	for i, op := range script {
		for name, r := range map[string]interface {
			Apply(context.Context, incremental.Op) error
		}{"single-node": single, "in-process": inproc, "networked": co} {
			if err := r.Apply(ctx, op); err != nil {
				t.Fatalf("op %d (%s %s): %s: %v", i, op.Kind, op.URI, name, err)
			}
		}
		if (i+1)%50 == 0 || i+1 == len(script) {
			assertCoordinatorEquals(t, co, single, "single-node", dc.meta != nil, i+1)
			assertCoordinatorEquals(t, co, inproc, "in-process", dc.meta != nil, i+1)
		}
	}
	// The routing must be real: every operation reached every shard (so the
	// slot spaces stayed aligned), but strictly fewer than ops×shards full
	// payloads crossed the wire when there is more than one shard.
	ts := co.TransportStats()
	total := int64(dc.ops) * int64(dc.shards)
	if ts.FullOps+ts.AdvanceOps != total {
		t.Fatalf("delivery counters: full=%d advance=%d, want total %d", ts.FullOps, ts.AdvanceOps, total)
	}
	if dc.shards > 1 {
		if ts.FullOps >= total {
			t.Fatalf("routing sent %d full payloads for %d op-deliveries — it is replicating, not routing", ts.FullOps, total)
		}
		if ts.AdvanceOps == 0 {
			t.Fatalf("routing never sent a slot-advance record across %d ops × %d shards", dc.ops, dc.shards)
		}
	}
	if len(ts.Down) != 0 {
		t.Fatalf("shards down after a clean run: %v", ts.Down)
	}
	if its := inproc.TransportStats(); !reflect.DeepEqual(its, ts) {
		t.Fatalf("in-process delivery counters %+v, TCP %+v", its, ts)
	}
}

// TestTransportDifferential is the acceptance matrix: op scripts replayed
// through real TCP and in-process deployments at several shard counts,
// bit-exact against the single-node resolver.
func TestTransportDifferential(t *testing.T) {
	var configs []transportDiffConfig
	for si, n := range []int{1, 2, 4, 7} {
		configs = append(configs, transportDiffConfig{
			kind: entity.Dirty, blocker: &blocking.TokenBlocking{},
			workers: 4, shards: n, seed: int64(201 + si), ops: 200, mix: opMixes[si%len(opMixes)],
		})
	}
	configs = append(configs,
		transportDiffConfig{
			kind: entity.CleanClean, blocker: &blocking.TokenBlocking{},
			workers: 4, shards: 4, seed: 205, ops: 160, mix: opMixes[1],
		},
		transportDiffConfig{
			kind: entity.Dirty, blocker: &blocking.StandardBlocking{},
			workers: 2, shards: 3, seed: 206, ops: 160, mix: opMixes[2],
		},
	)
	for _, dc := range configs {
		dc := dc
		t.Run(dc.String(), func(t *testing.T) {
			if testing.Short() && dc.shards > 2 {
				t.Skip("short mode runs small shard counts only")
			}
			t.Parallel()
			runTransportDifferential(t, dc)
		})
	}
}

// TestTransportDifferentialMetaBlocking extends the matrix to deferred
// meta-blocking: shards defer all matching, the coordinator's replica
// reconciles the full weighted graph locally, and matches, comparison
// counts AND restructured blocks must stay bit-exact.
func TestTransportDifferentialMetaBlocking(t *testing.T) {
	metas := []*metablocking.MetaBlocker{
		{Weight: metablocking.CBS, Prune: metablocking.WEP},
		{Weight: metablocking.ECBS, Prune: metablocking.WNP},
	}
	var configs []transportDiffConfig
	for mi, meta := range metas {
		for _, n := range []int{2, 5} {
			configs = append(configs, transportDiffConfig{
				kind: entity.Dirty, blocker: &blocking.TokenBlocking{}, meta: meta,
				workers: 4, shards: n, seed: int64(221 + mi), ops: 140, mix: opMixes[mi%len(opMixes)],
			})
		}
	}
	for i, n := range []int{1, 3, 4} {
		configs = append(configs, transportDiffConfig{
			kind: entity.Dirty, blocker: &blocking.TokenBlocking{}, meta: metas[i%len(metas)],
			workers: 2, shards: n, seed: int64(231 + i), ops: 120, mix: opMixes[(i+1)%len(opMixes)],
		})
	}
	for _, dc := range configs {
		dc := dc
		t.Run(dc.String(), func(t *testing.T) {
			if testing.Short() && dc.shards > 2 {
				t.Skip("short mode runs small shard counts only")
			}
			t.Parallel()
			runTransportDifferential(t, dc)
		})
	}
}
