package transport_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"entityres/internal/blocking"
	"entityres/internal/entity"
	"entityres/internal/incremental"
	"entityres/internal/matching"
	"entityres/internal/metablocking"
	"entityres/internal/sharded"
	"entityres/internal/transport"
)

// The networked batched-ingestion property: a coordinator shipping whole
// batches — one replica append, one frame per shard per batch, one
// cumulative ack back — stays bit-exact with the single-node resolver, over
// TCP and over the in-process pipes alike; a batch torn by a crash (shards
// down mid-fan-out, coordinator restart, connection death between apply
// and ack) is re-delivered idempotently from the journal tail; and the
// wire amortization is measurable: round trips per batch, not per op.

// coBatchRecords converts a script chunk into coordinator batch records.
func coBatchRecords(ops []incremental.Op) []incremental.Record {
	recs := make([]incremental.Record, len(ops))
	for i, op := range ops {
		recs[i] = incremental.Record{Kind: op.Kind, ID: -1, URI: op.URI, Source: op.Source, Attrs: op.Attrs}
	}
	return recs
}

// transportBatchConfig is one networked batched-ingestion scenario.
type transportBatchConfig struct {
	shards int
	size   int
	seed   int64
	ops    int
	meta   *metablocking.MetaBlocker
	mix    opMix
}

func (bc transportBatchConfig) String() string {
	s := fmt.Sprintf("n%d/b%d/%s/seed%d", bc.shards, bc.size, bc.mix.name, bc.seed)
	if bc.meta != nil {
		s += "/" + bc.meta.Name()
	}
	return s
}

func runTransportBatchDifferential(t *testing.T, bc transportBatchConfig) {
	matcher := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
	script := generateScript(t, entity.Dirty, bc.seed, bc.ops, bc.mix)
	cfg := sharded.Config{
		Kind: entity.Dirty, Blocker: &blocking.TokenBlocking{}, Matcher: matcher,
		Workers: 4, Meta: bc.meta, Shards: bc.shards,
	}
	single, err := incremental.New(incremental.Config{
		Kind: entity.Dirty, Blocker: &blocking.TokenBlocking{}, Matcher: matcher, Workers: 4, Meta: bc.meta,
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
	cl := startCluster(t, cfg, make([]string, bc.shards))
	co, err := cl.open(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	chunks := 0
	for at := 0; at < bc.ops; at += bc.size {
		end := min(at+bc.size, bc.ops)
		chunk := script[at:end]
		if err := co.ApplyBatch(ctx, coBatchRecords(chunk)); err != nil {
			t.Fatalf("networked batch at op %d: %v", at, err)
		}
		if err := inproc.ApplyBatch(ctx, coBatchRecords(chunk)); err != nil {
			t.Fatalf("in-process batch at op %d: %v", at, err)
		}
		chunks++
		for i := at; i < end; i++ {
			if err := single.Apply(ctx, script[i]); err != nil {
				t.Fatalf("op %d (%s %s): %v", i, script[i].Kind, script[i].URI, err)
			}
		}
		if at/50 != end/50 || end == bc.ops {
			assertCoordinatorEquals(t, co, single, "single-node", bc.meta != nil, end)
			assertCoordinatorEquals(t, co, inproc, "in-process", bc.meta != nil, end)
		}
	}
	// The wire amortization is the acceptance criterion: one fan-out and
	// shards round trips per BATCH, one replica journal append per batch.
	perf := co.Perf()
	if perf.FanOuts != int64(chunks) {
		t.Fatalf("%d fan-outs for %d batches", perf.FanOuts, chunks)
	}
	if perf.TransportRoundTrips != int64(chunks*bc.shards) {
		t.Fatalf("%d round trips for %d batches on %d shards", perf.TransportRoundTrips, chunks, bc.shards)
	}
	if bc.meta == nil && perf.JournalAppends != int64(chunks) {
		t.Fatalf("%d replica journal appends for %d batches", perf.JournalAppends, chunks)
	}
	// Routing stays real inside batch frames: every op reaches every shard,
	// but as a slot-advance wherever the shard owns none of its keys.
	ts := co.TransportStats()
	total := int64(bc.ops) * int64(bc.shards)
	if ts.FullOps+ts.AdvanceOps != total {
		t.Fatalf("delivery counters: full=%d advance=%d, want total %d", ts.FullOps, ts.AdvanceOps, total)
	}
	if bc.shards > 1 && (ts.FullOps >= total || ts.AdvanceOps == 0) {
		t.Fatalf("batch frames are replicating, not routing: full=%d advance=%d of %d", ts.FullOps, ts.AdvanceOps, total)
	}
	if its := inproc.TransportStats(); !reflect.DeepEqual(its, ts) {
		t.Fatalf("in-process delivery counters %+v, TCP %+v", its, ts)
	}
}

// TestTransportDifferentialBatch is the networked batched-ingestion
// acceptance matrix. Named to ride the transport differential race job.
func TestTransportDifferentialBatch(t *testing.T) {
	configs := []transportBatchConfig{
		{shards: 1, size: 16, seed: 441, ops: 160, mix: opMixes[0]},
		{shards: 3, size: 1, seed: 442, ops: 120, mix: opMixes[1]},
		{shards: 3, size: 16, seed: 443, ops: 160, mix: opMixes[1]},
		{shards: 4, size: 64, seed: 444, ops: 160, mix: opMixes[2]},
		{shards: 2, size: 16, seed: 445, ops: 140, mix: opMixes[1],
			meta: &metablocking.MetaBlocker{Weight: metablocking.CBS, Prune: metablocking.WEP}},
		{shards: 5, size: 9, seed: 446, ops: 140, mix: opMixes[0],
			meta: &metablocking.MetaBlocker{Weight: metablocking.ECBS, Prune: metablocking.WNP}},
	}
	for _, bc := range configs {
		bc := bc
		t.Run(bc.String(), func(t *testing.T) {
			if testing.Short() && bc.shards > 2 {
				t.Skip("short mode runs small shard counts only")
			}
			t.Parallel()
			runTransportBatchDifferential(t, bc)
		})
	}
}

// TestCoordinatorRestartMidBatch: the batch analog of the torn-op crash.
// A whole batch is journaled on the coordinator while every shard misses
// it; the coordinator dies; the reopened coordinator reconstructs the
// batch tail from its journal's OpBatch record and re-sends it during the
// opening handshake.
func TestCoordinatorRestartMidBatch(t *testing.T) {
	t.Parallel()
	for _, meta := range []*metablocking.MetaBlocker{
		nil,
		{Weight: metablocking.CBS, Prune: metablocking.WEP},
	} {
		meta := meta
		name := "plain"
		if meta != nil {
			name = meta.Name()
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			matcher := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
			const ops, k, size, shards = 96, 48, 6, 3
			script := generateScript(t, entity.Dirty, 451, ops, opMixes[1])
			cfg := sharded.Config{
				Kind: entity.Dirty, Blocker: &blocking.TokenBlocking{}, Matcher: matcher,
				Workers: 4, Meta: meta, Shards: shards, Durable: durableOpts(),
			}
			base := t.TempDir()
			dirs := make([]string, shards)
			for i := range dirs {
				dirs[i] = fmt.Sprintf("%s/srv-%d", base, i)
			}
			cl := startCluster(t, cfg, dirs)
			ctx := context.Background()
			cdir := base + "/coord"
			co, err := cl.open(ctx, cdir)
			if err != nil {
				t.Fatal(err)
			}
			single, err := incremental.New(incremental.Config{
				Kind: entity.Dirty, Blocker: &blocking.TokenBlocking{}, Matcher: matcher, Workers: 4, Meta: meta,
			})
			if err != nil {
				t.Fatal(err)
			}
			mirror := func(from, to int) {
				t.Helper()
				for i := from; i < to; i++ {
					if err := single.Apply(ctx, script[i]); err != nil {
						t.Fatalf("reference op %d: %v", i, err)
					}
				}
			}
			// Stream the prefix in batches, then kill every shard and apply
			// one more batch: journaled whole on the coordinator, received
			// by nobody — a torn BATCH, not a torn op.
			for at := 0; at < k; at += size {
				if err := co.ApplyBatch(ctx, coBatchRecords(script[at:at+size])); err != nil {
					t.Fatalf("batch at op %d: %v", at, err)
				}
			}
			mirror(0, k)
			for i := 0; i < shards; i++ {
				cl.servers[i].Abandon()
			}
			var sue *transport.ShardUnavailableError
			if err := co.ApplyBatch(ctx, coBatchRecords(script[k:k+size])); !errors.As(err, &sue) {
				t.Fatalf("torn batch: got %v, want ShardUnavailableError", err)
			} else if len(sue.Shards) != shards {
				t.Fatalf("unavailable set %v, want all %d shards", sue.Shards, shards)
			}
			mirror(k, k+size)
			co.Abandon()

			// Everything restarts. The reopened coordinator finds every
			// shard a whole batch behind and re-sends the tail idempotently.
			for i := 0; i < shards; i++ {
				cl.startShard(i)
			}
			co2, err := cl.open(ctx, cdir)
			if err != nil {
				t.Fatalf("reopening coordinator after torn batch: %v", err)
			}
			defer co2.Close()
			if co2.Seq() != uint64(k+size) {
				t.Fatalf("Seq() = %d after restart, want %d", co2.Seq(), k+size)
			}
			for at := k + size; at < ops; at += size {
				if err := co2.ApplyBatch(ctx, coBatchRecords(script[at:at+size])); err != nil {
					t.Fatalf("batch at op %d after restart: %v", at, err)
				}
			}
			mirror(k+size, ops)
			assertCoordinatorEquals(t, co2, single, "single-node", meta != nil, ops)
		})
	}
}

// TestCoordinatorRestartShardMissesBatch: one shard dies mid-fan-out, so
// the batch lands everywhere else; the coordinator survives, keeps exact
// counters while the shard is down (the all-insert tail is reconstructed
// comparison-for-comparison), and RejoinShard re-sends the whole batch to
// the returning shard in one frame.
func TestCoordinatorRestartShardMissesBatch(t *testing.T) {
	t.Parallel()
	matcher := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
	const prefix, size, shards, victim = 40, 5, 3, 1
	script := generateScript(t, entity.Dirty, 452, prefix, opMixes[1])
	cfg := sharded.Config{
		Kind: entity.Dirty, Blocker: &blocking.TokenBlocking{}, Matcher: matcher,
		Workers: 4, Shards: shards, Durable: durableOpts(),
	}
	base := t.TempDir()
	dirs := make([]string, shards)
	for i := range dirs {
		dirs[i] = fmt.Sprintf("%s/srv-%d", base, i)
	}
	cl := startCluster(t, cfg, dirs)
	ctx := context.Background()
	co, err := cl.open(ctx, base+"/coord")
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	single, err := incremental.New(incremental.Config{
		Kind: entity.Dirty, Blocker: &blocking.TokenBlocking{}, Matcher: matcher, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < prefix; i++ {
		if err := co.Apply(ctx, script[i]); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if err := single.Apply(ctx, script[i]); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	// An all-insert batch while the victim is down: accepted, journaled,
	// applied on the live shards — and the victim misses all of it.
	batch := make([]incremental.Op, size)
	for i := range batch {
		batch[i] = incremental.Op{
			Kind: incremental.OpInsert, URI: fmt.Sprintf("urn:batch-%d", i),
			Attrs: []entity.Attribute{{Name: "name", Value: fmt.Sprintf("alice smith %d", i)}},
		}
	}
	cl.servers[victim].Abandon()
	var sue *transport.ShardUnavailableError
	if err := co.ApplyBatch(ctx, coBatchRecords(batch)); !errors.As(err, &sue) {
		t.Fatalf("batch with shard %d dead: got %v, want ShardUnavailableError", victim, err)
	} else if len(sue.Shards) != 1 || sue.Shards[0] != victim {
		t.Fatalf("unavailable set %v, want [%d]", sue.Shards, victim)
	}
	for _, op := range batch {
		if err := single.Apply(ctx, op); err != nil {
			t.Fatal(err)
		}
	}
	// Counters stay exact while the tail is un-acked on the victim: the
	// comparison count of an all-insert batch tail is reconstructed from
	// the replica, not floored at the last acknowledged op.
	if gs, ws := mustStats(t, co), mustStats(t, single); gs != ws {
		t.Fatalf("stats with shard %d down:\nnetworked   %+v\nsingle-node %+v", victim, gs, ws)
	}
	cl.startShard(victim)
	if err := co.RejoinShard(ctx, victim); err != nil {
		t.Fatalf("rejoining shard %d: %v", victim, err)
	}
	if ts := co.TransportStats(); len(ts.Down) != 0 {
		t.Fatalf("Down = %v after rejoin", ts.Down)
	}
	assertCoordinatorEquals(t, co, single, "single-node", false, prefix+size)
}

// TestClientBatchRedelivery kills the connection between the server's
// batch apply and the client's read of the cumulative ack: the retry
// re-delivers the whole frame, the shard re-acks its already-applied
// prefix without re-applying, and every operation is held exactly once.
func TestClientBatchRedelivery(t *testing.T) {
	t.Parallel()
	srv, addr := startTestServer(t)
	var fail atomic.Int32
	dial := func(ctx context.Context, a string) (net.Conn, error) {
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", a)
		if err != nil {
			return nil, err
		}
		return &dropConn{Conn: conn, fail: &fail}, nil
	}
	c := transport.NewShardClient(addr, testExpect(), transport.ClientOptions{
		Timeout: 2 * time.Second, Attempts: 3, Dial: dial,
	})
	defer c.Close()
	ctx := context.Background()
	first := []incremental.RoutedOp{testOp(1, 0), testOp(2, 1), testOp(3, 2)}
	ack, err := c.ApplyBatch(ctx, first)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Seq != 3 || len(ack.Neighbors) != 3 {
		t.Fatalf("batch ack %+v, want seq 3 with 3 neighbor lists", ack)
	}
	// The next reply read fails AFTER the frame was written: the server
	// applies ops 4..6 and acks into a dead connection; the retry
	// re-delivers the whole batch over a fresh handshake.
	fail.Store(1)
	ack, err = c.ApplyBatch(ctx, []incremental.RoutedOp{testOp(4, 3), testOp(5, 4), testOp(6, 5)})
	if err != nil {
		t.Fatalf("batch redelivery failed: %v", err)
	}
	if ack.Seq != 6 {
		t.Fatalf("redelivered batch acked at seq %d, want 6", ack.Seq)
	}
	st := srv.Resolver().Counters()
	if st.Inserts != 6 || st.Live != 6 {
		t.Fatalf("after redelivery: inserts=%d live=%d, want 6/6 (each op applied exactly once)", st.Inserts, st.Live)
	}
	if got := srv.Resolver().LastSeq(); got != 6 {
		t.Fatalf("shard at seq %d, want 6", got)
	}
}

// TestClientBatchShape covers the client-side frame checks: an empty batch
// never touches the wire, and a server refusal surfaces as a RemoteError
// without retry.
func TestClientBatchShape(t *testing.T) {
	t.Parallel()
	_, addr := startTestServer(t)
	c := transport.NewShardClient(addr, testExpect(), transport.ClientOptions{Timeout: 2 * time.Second})
	defer c.Close()
	ctx := context.Background()
	if _, err := c.ApplyBatch(ctx, nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	// Seq 0 repeats the shard's current position (0): the server refuses
	// the batch semantically rather than applying it.
	var rerr *transport.RemoteError
	if _, err := c.ApplyBatch(ctx, []incremental.RoutedOp{testOp(0, 0)}); !errors.As(err, &rerr) {
		t.Fatalf("mis-sequenced batch: got %v, want RemoteError", err)
	}
}
