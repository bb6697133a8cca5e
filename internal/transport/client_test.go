package transport_test

import (
	"context"
	"errors"
	"fmt"
	"net"
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

// Fault-injection coverage of the client's retry discipline: transport
// failures (dial errors, connections that die mid-round-trip, servers that
// never answer) are retried over fresh connections within the attempt
// budget and surface as transport errors past it; semantic refusals are
// never retried; and a re-delivered operation — applied once, ack lost —
// is acknowledged idempotently, not applied twice. Every request is a
// batch frame; these use batches of one.

func testShardCfg() sharded.Config {
	return sharded.Config{
		Kind:    entity.Dirty,
		Blocker: &blocking.TokenBlocking{},
		Matcher: &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5},
		Shards:  1,
	}
}

// startTestServer boots a single in-memory shard server on a real listener.
func startTestServer(t *testing.T) (*transport.ShardServer, string) {
	t.Helper()
	srv, err := transport.NewShardServer("", testShardCfg(), 0)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close() })
	return srv, lis.Addr().String()
}

func testExpect() transport.Hello {
	return transport.Expectation(testShardCfg(), 0)
}

func testOp(seq uint64, id entity.ID) incremental.RoutedOp {
	return incremental.RoutedOp{
		Seq: seq, Kind: incremental.OpInsert, ID: id,
		URI: fmt.Sprintf("urn:op-%d", seq), Source: 0,
		Attrs: []entity.Attribute{{Name: "name", Value: "alice smith"}},
	}
}

// dropConn injects read failures: after failures is exhausted the wrapped
// connection behaves normally.
type dropConn struct {
	net.Conn
	fail *atomic.Int32
}

func (c *dropConn) Read(p []byte) (int, error) {
	if c.fail.Add(-1) >= 0 {
		c.Conn.Close()
		return 0, errors.New("injected read failure")
	}
	return c.Conn.Read(p)
}

func TestClientRetriesTransportFailures(t *testing.T) {
	t.Parallel()
	_, addr := startTestServer(t)
	var dialFails atomic.Int32
	dialFails.Store(1)
	var dials atomic.Int32
	dial := func(ctx context.Context, a string) (net.Conn, error) {
		dials.Add(1)
		if dialFails.Add(-1) >= 0 {
			return nil, errors.New("injected dial failure")
		}
		var d net.Dialer
		return d.DialContext(ctx, "tcp", a)
	}
	c := transport.NewShardClient(addr, testExpect(), transport.ClientOptions{
		Timeout: 2 * time.Second, Attempts: 3, Dial: dial,
	})
	defer c.Close()
	if _, err := c.ApplyBatch(context.Background(), []incremental.RoutedOp{testOp(1, 0)}); err != nil {
		t.Fatalf("op failed despite retry budget: %v", err)
	}
	if n := dials.Load(); n != 2 {
		t.Fatalf("dialed %d times, want 2 (one failure, one success)", n)
	}
}

// TestClientIdempotentRedelivery kills the connection between the server's
// apply and the client's read of the ack: the retry re-delivers the same
// sequence number, the shard acknowledges WITHOUT re-applying, and the
// resolver holds the operation exactly once.
func TestClientIdempotentRedelivery(t *testing.T) {
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
	if _, err := c.ApplyBatch(ctx, []incremental.RoutedOp{testOp(1, 0)}); err != nil {
		t.Fatal(err)
	}
	// The next round-trip's reply read fails AFTER the request was written:
	// the server applies op 2 and acks into a dead connection, and the
	// retry re-delivers seq 2 over a fresh handshake.
	fail.Store(1)
	if _, err := c.ApplyBatch(ctx, []incremental.RoutedOp{testOp(2, 1)}); err != nil {
		t.Fatalf("redelivery failed: %v", err)
	}
	st := srv.Resolver().Counters()
	if st.Inserts != 2 || st.Live != 2 {
		t.Fatalf("after redelivery: inserts=%d live=%d, want 2/2 (applied exactly once)", st.Inserts, st.Live)
	}
	if got := srv.Resolver().LastSeq(); got != 2 {
		t.Fatalf("shard at seq %d, want 2", got)
	}
}

// TestClientTimesOut points the client at a server that accepts and then
// never answers: every attempt must end at the deadline, not hang.
func TestClientTimesOut(t *testing.T) {
	t.Parallel()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold it open, answer nothing
		}
	}()
	c := transport.NewShardClient(lis.Addr().String(), testExpect(), transport.ClientOptions{
		Timeout: 100 * time.Millisecond, Attempts: 2,
	})
	defer c.Close()
	start := time.Now()
	_, err = c.ApplyBatch(context.Background(), []incremental.RoutedOp{testOp(1, 0)})
	if err == nil {
		t.Fatal("op succeeded against a mute server")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("attempts took %v — deadlines are not bounding the round-trip", elapsed)
	}
}

// TestClientDoesNotRetryRefusals asserts a semantic refusal surfaces as a
// RemoteError after ONE attempt — re-sending a request the shard rejected
// cannot help, and retries would mask divergence.
func TestClientDoesNotRetryRefusals(t *testing.T) {
	t.Parallel()
	_, addr := startTestServer(t)
	var dials atomic.Int32
	dial := func(ctx context.Context, a string) (net.Conn, error) {
		dials.Add(1)
		var d net.Dialer
		return d.DialContext(ctx, "tcp", a)
	}
	// Wrong identity: the handshake itself is refused.
	wrong := testExpect()
	wrong.Shards = 9
	c := transport.NewShardClient(addr, wrong, transport.ClientOptions{
		Timeout: 2 * time.Second, Attempts: 3, Dial: dial,
	})
	defer c.Close()
	var rerr *transport.RemoteError
	if _, err := c.ApplyBatch(context.Background(), []incremental.RoutedOp{testOp(1, 0)}); !errors.As(err, &rerr) {
		t.Fatalf("got %v, want RemoteError", err)
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("dialed %d times for a refusal, want 1", n)
	}

	// A sequence gap is refused by a healthy connection, again once.
	dials.Store(0)
	c2 := transport.NewShardClient(addr, testExpect(), transport.ClientOptions{
		Timeout: 2 * time.Second, Attempts: 3, Dial: dial,
	})
	defer c2.Close()
	if _, err := c2.ApplyBatch(context.Background(), []incremental.RoutedOp{testOp(5, 4)}); !errors.As(err, &rerr) {
		t.Fatalf("sequence gap: got %v, want RemoteError", err)
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("dialed %d times for a refusal, want 1", n)
	}
}
