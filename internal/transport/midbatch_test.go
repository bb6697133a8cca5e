package transport_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"entityres/internal/blocking"
	"entityres/internal/entity"
	"entityres/internal/incremental"
	"entityres/internal/matching"
	"entityres/internal/sharded"
	"entityres/internal/transport"
)

// A shard journals each batch frame as one record, so a crash in the middle
// of a batch leaves it wholly applied or not at all: a shard that died
// after its append but before the ack re-acknowledges the redelivered frame
// without applying anything, and a shard whose journal lost the frame's
// tail bytes reopens at the batch's start and takes the whole batch again
// on rejoin.

// crashConn fails the first reply read after it is armed, running crash
// first — the shard dies between its journaled apply and the ack.
type crashConn struct {
	net.Conn
	armed *atomic.Bool
	crash func()
}

func (c *crashConn) Read(p []byte) (int, error) {
	if c.armed.CompareAndSwap(true, false) {
		c.crash()
		c.Conn.Close()
		return 0, errors.New("injected crash before the ack")
	}
	return c.Conn.Read(p)
}

// TestShardCrashMidBatch covers both halves against the single-node
// resolver, counting the victim's journal appends per frame.
func TestShardCrashMidBatch(t *testing.T) {
	for _, torn := range []bool{false, true} {
		name := "abandoned-before-ack"
		if torn {
			name = "torn-batch-tail"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			runShardCrashMidBatch(t, torn)
		})
	}
}

func runShardCrashMidBatch(t *testing.T, torn bool) {
	matcher := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
	const ops, size, shards, victim = 96, 8, 2, 1
	const k = 5 * size // the batch the crash interrupts starts here
	script := generateScript(t, entity.Dirty, 461, ops, opMixes[1])
	cfg := sharded.Config{
		Kind: entity.Dirty, Blocker: &blocking.TokenBlocking{}, Matcher: matcher,
		Workers: 2, Shards: shards, Durable: durableOpts(),
	}
	base := t.TempDir()
	dirs := make([]string, shards)
	for i := range dirs {
		dirs[i] = filepath.Join(base, fmt.Sprintf("srv-%d", i))
	}
	cl := startCluster(t, cfg, dirs)
	var armed atomic.Bool
	crashErr := make(chan error, 1)
	crash := func() {
		// Wait for the frame's journaled apply, then hard-stop and restart
		// the shard: the client's retry reaches the reopened server.
		res := cl.servers[victim].Resolver()
		deadline := time.Now().Add(5 * time.Second)
		for res.LastSeq() < k+size && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		cl.servers[victim].Abandon()
		if got := res.LastSeq(); got != k+size {
			crashErr <- fmt.Errorf("shard died at seq %d, want the whole batch through %d", got, k+size)
			return
		}
		srv, err := transport.NewShardServer(dirs[victim], cfg, victim)
		if err != nil {
			crashErr <- err
			return
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			crashErr <- err
			return
		}
		cl.book.set(cl.names[victim], lis.Addr().String())
		cl.servers[victim] = srv
		go srv.Serve(lis)
		crashErr <- nil
	}
	opts := cl.opts()
	opts.Dial = func(ctx context.Context, name string) (net.Conn, error) {
		conn, err := cl.book.dial(ctx, name)
		if err != nil || name != cl.names[victim] {
			return conn, err
		}
		return &crashConn{Conn: conn, armed: &armed, crash: crash}, nil
	}
	ctx := context.Background()
	co, err := transport.OpenCoordinator(ctx, filepath.Join(base, "coord"), cfg, cl.names, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	single, err := incremental.New(incremental.Config{
		Kind: entity.Dirty, Blocker: &blocking.TokenBlocking{}, Matcher: matcher, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	batch := func(at int) {
		t.Helper()
		appends := cl.servers[victim].Resolver().Perf().JournalAppends
		if err := co.ApplyBatch(ctx, coBatchRecords(script[at:at+size])); err != nil {
			t.Fatalf("batch at op %d: %v", at, err)
		}
		for i := at; i < at+size; i++ {
			if err := single.Apply(ctx, script[i]); err != nil {
				t.Fatalf("reference op %d: %v", i, err)
			}
		}
		if got := cl.servers[victim].Resolver().Perf().JournalAppends - appends; got != 1 {
			t.Fatalf("batch at op %d took %d shard journal appends, want 1", at, got)
		}
	}
	for at := 0; at < k; at += size {
		batch(at)
	}

	if !torn {
		// The victim journals the batch, dies before acking it, and comes
		// back on the same directory; the client's redelivery is re-acked.
		armed.Store(true)
		if err := co.ApplyBatch(ctx, coBatchRecords(script[k:k+size])); err != nil {
			t.Fatalf("batch across the crash: %v", err)
		}
		if err := <-crashErr; err != nil {
			t.Fatal(err)
		}
		for i := k; i < k+size; i++ {
			if err := single.Apply(ctx, script[i]); err != nil {
				t.Fatal(err)
			}
		}
		if got := cl.servers[victim].Resolver().Perf().JournalAppends; got != 0 {
			t.Fatalf("redelivered batch took %d journal appends on the recovered shard, want 0", got)
		}
	} else {
		// The batch lands everywhere; then the victim dies and its journal
		// loses the tail bytes of that batch's record.
		batch(k)
		cl.servers[victim].Abandon()
		segs, err := filepath.Glob(filepath.Join(dirs[victim], "wal-*.seg"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("victim segments: %v %v", segs, err)
		}
		last := segs[len(segs)-1]
		info, err := os.Stat(last)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(last, info.Size()-5); err != nil {
			t.Fatal(err)
		}
		cl.startShard(victim)
		if got := cl.servers[victim].Resolver().LastSeq(); got != k {
			t.Fatalf("shard reopened at seq %d, want the batch's start %d", got, k)
		}
		if err := co.RejoinShard(ctx, victim); err != nil {
			t.Fatalf("rejoin: %v", err)
		}
		if got := cl.servers[victim].Resolver().Perf().JournalAppends; got != 1 {
			t.Fatalf("rejoin re-sent the batch in %d journal appends, want 1", got)
		}
	}
	if ts := co.TransportStats(); len(ts.Down) != 0 {
		t.Fatalf("Down = %v after the crash", ts.Down)
	}
	assertCoordinatorEquals(t, co, single, "single-node", false, k+size)
	for at := k + size; at+size <= ops; at += size {
		batch(at)
	}
	assertCoordinatorEquals(t, co, single, "single-node", false, ops)
}
