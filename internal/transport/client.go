// ShardClient: the coordinator's connection to one shard server, with the
// retry discipline the routed stream needs. Transport failures — dial
// errors, torn frames, deadline expiries — are retried a bounded number of
// times over a fresh connection; re-delivery is safe because the shard
// acknowledges an already-applied sequence number without re-applying.
// Semantic refusals (frameErr) are NEVER retried: the request arrived and
// the shard rejected it, so re-sending cannot help and the error surfaces
// as a RemoteError for the coordinator to interpret.
package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"entityres/internal/incremental"
	"entityres/internal/wal"
)

// DialFunc opens a connection to a shard address. The default is a
// net.Dialer; tests inject fault-wrapping dialers to exercise disconnects,
// timeouts and retries deterministically.
type DialFunc func(ctx context.Context, addr string) (net.Conn, error)

// ClientOptions tunes a shard connection.
type ClientOptions struct {
	// Timeout bounds every request round-trip, dial included (default 5s).
	Timeout time.Duration
	// Attempts is the number of delivery attempts per request, each over a
	// fresh connection after a transport failure (default 3).
	Attempts int
	// Dial opens connections (default: net.Dialer through Timeout).
	Dial DialFunc
}

const (
	defaultTimeout  = 5 * time.Second
	defaultAttempts = 3
)

func (o ClientOptions) timeout() time.Duration {
	if o.Timeout > 0 {
		return o.Timeout
	}
	return defaultTimeout
}

func (o ClientOptions) attempts() int {
	if o.Attempts > 0 {
		return o.Attempts
	}
	return defaultAttempts
}

// RemoteError is a shard's semantic refusal of a delivered request.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "transport: shard refused: " + e.Msg }

// ShardClient is a synchronous frame-protocol client for one shard. It is
// not safe for concurrent use; the coordinator owns one per shard and
// serializes requests within its fan-out.
type ShardClient struct {
	addr   string
	expect Hello
	opts   ClientOptions

	mu   sync.Mutex
	conn net.Conn
	// lastHello is the server's reply from the connection's opening
	// handshake — the shard's durable position at connect time.
	lastHello Hello
}

// NewShardClient returns a lazily-dialing client. expect is the deployment
// identity the handshake asserts (built by the coordinator).
func NewShardClient(addr string, expect Hello, opts ClientOptions) *ShardClient {
	return &ShardClient{addr: addr, expect: expect, opts: opts}
}

// Hello (re)connects and returns the shard's handshake reply. It always
// dials fresh — rejoin uses it to observe the shard's current durable
// position rather than a cached one.
func (c *ShardClient) Hello(ctx context.Context) (Hello, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropLocked()
	if err := c.ensureLocked(ctx); err != nil {
		return Hello{}, err
	}
	return c.lastHello, nil
}

// LastHello returns the most recent handshake reply without touching the
// network.
func (c *ShardClient) LastHello() Hello {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastHello
}

// ApplyBatch delivers a whole batch of routed operations in one round trip
// and returns the shard's cumulative acknowledgement. Retry over a fresh
// connection re-delivers the whole frame; the shard re-acks its already-
// applied prefix idempotently and resumes where it stopped.
func (c *ShardClient) ApplyBatch(ctx context.Context, ops []incremental.RoutedOp) (BatchAck, error) {
	if len(ops) == 0 {
		return BatchAck{}, fmt.Errorf("transport: empty batch")
	}
	rtyp, reply, err := c.roundTrip(ctx, frameBatch, encodeBatch(nil, ops))
	if err != nil {
		return BatchAck{}, err
	}
	if rtyp != frameBatchAck {
		return BatchAck{}, fmt.Errorf("transport: batch answered with frame type %d", rtyp)
	}
	ack, err := decodeBatchAck(reply)
	if err != nil {
		return BatchAck{}, err
	}
	if want := ops[len(ops)-1].Seq; ack.Seq != want {
		return BatchAck{}, fmt.Errorf("transport: batch ack at seq %d, final op is seq %d", ack.Seq, want)
	}
	if len(ack.Neighbors) != len(ops) {
		return BatchAck{}, fmt.Errorf("transport: batch ack carries %d neighbor lists for %d operations", len(ack.Neighbors), len(ops))
	}
	return ack, nil
}

// Bootstrap ships a full state transfer. Safe to retry: a shard already at
// the shipped sequence number acknowledges without restoring again.
func (c *ShardClient) Bootstrap(ctx context.Context, blob wal.Snapshot) error {
	rtyp, _, err := c.roundTrip(ctx, frameBootstrap, blob)
	if err != nil {
		return err
	}
	if rtyp != frameBootstrapOK {
		return fmt.Errorf("transport: bootstrap answered with frame type %d", rtyp)
	}
	return nil
}

// State fetches the shard's counters, stream position and match edges.
func (c *ShardClient) State(ctx context.Context) (stateJSON, error) {
	rtyp, reply, err := c.roundTrip(ctx, frameState, nil)
	if err != nil {
		return stateJSON{}, err
	}
	if rtyp != frameStateOK {
		return stateJSON{}, fmt.Errorf("transport: state answered with frame type %d", rtyp)
	}
	var st stateJSON
	if err := unmarshalJSON(reply, &st); err != nil {
		return stateJSON{}, err
	}
	return st, nil
}

// Close drops the connection. The client can be reused; the next request
// redials.
func (c *ShardClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropLocked()
	return nil
}

// roundTrip sends one request frame and reads its reply, redialing and
// retrying on transport failure up to the attempt budget. A frameErr reply
// is returned as a *RemoteError without retrying.
func (c *ShardClient) roundTrip(ctx context.Context, typ byte, payload []byte) (byte, []byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var lastErr error
	for attempt := 0; attempt < c.opts.attempts(); attempt++ {
		if err := ctx.Err(); err != nil {
			return 0, nil, err
		}
		if err := c.ensureLocked(ctx); err != nil {
			// An identity refusal during the handshake is semantic, not
			// transport: redialing the same server cannot change its answer.
			var rerr *RemoteError
			if errors.As(err, &rerr) {
				return 0, nil, err
			}
			lastErr = err
			continue
		}
		rtyp, reply, err := c.exchangeLocked(ctx, typ, payload)
		if err != nil {
			// Transport failure: this connection is suspect. Drop it and
			// retry on a fresh one — the shard's sequence check makes
			// re-delivery idempotent.
			c.dropLocked()
			lastErr = err
			continue
		}
		if rtyp == frameErr {
			return 0, nil, &RemoteError{Msg: string(reply)}
		}
		return rtyp, reply, nil
	}
	return 0, nil, fmt.Errorf("transport: %s unreachable after %d attempts: %w", c.addr, c.opts.attempts(), lastErr)
}

// exchangeLocked performs one write/read round-trip under the request
// deadline. Callers hold c.mu with an established connection.
func (c *ShardClient) exchangeLocked(ctx context.Context, typ byte, payload []byte) (byte, []byte, error) {
	deadline := time.Now().Add(c.opts.timeout())
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	if err := c.conn.SetDeadline(deadline); err != nil {
		return 0, nil, err
	}
	if err := writeFrame(c.conn, typ, payload); err != nil {
		return 0, nil, err
	}
	return readFrame(c.conn)
}

// ensureLocked establishes a connection and performs the opening
// handshake. Callers hold c.mu.
func (c *ShardClient) ensureLocked(ctx context.Context) error {
	if c.conn != nil {
		return nil
	}
	dial := c.opts.Dial
	if dial == nil {
		dial = func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	dctx, cancel := context.WithTimeout(ctx, c.opts.timeout())
	defer cancel()
	conn, err := dial(dctx, c.addr)
	if err != nil {
		return err
	}
	c.conn = conn
	rtyp, reply, err := c.exchangeLocked(ctx, frameHello, marshalJSON(c.expect))
	if err != nil {
		c.dropLocked()
		return err
	}
	if rtyp == frameErr {
		// An identity refusal is permanent, but the connection itself is
		// fine to abandon either way.
		c.dropLocked()
		return &RemoteError{Msg: string(reply)}
	}
	if rtyp != frameHelloOK {
		c.dropLocked()
		return fmt.Errorf("transport: hello answered with frame type %d", rtyp)
	}
	var h Hello
	if err := unmarshalJSON(reply, &h); err != nil {
		c.dropLocked()
		return err
	}
	c.lastHello = h
	return nil
}

func (c *ShardClient) dropLocked() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}
