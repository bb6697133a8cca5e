// ShardServer: one shard of the networked deployment, serving its slice of
// the routed op stream over the frame protocol. The server wraps a plain
// incremental.Resolver opened with sharded.Config.NodeConfig — byte-for-
// byte the configuration the in-process coordinator gives shard i — so a
// shard directory written by either deployment form recovers under the
// other, and the resolver's own WAL provides the idempotent-replay half of
// the ack/retry protocol (ApplyRouted acknowledges seq <= LastSeq without
// re-applying).
package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"

	"entityres/internal/entity"
	"entityres/internal/incremental"
	"entityres/internal/sharded"
	"entityres/internal/wal"
)

// ShardServer serves one shard's resolver over the wire protocol.
type ShardServer struct {
	cfg   sharded.Config
	index int
	res   *incremental.Resolver

	mu     sync.Mutex
	lis    net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewShardServer opens shard index's resolver — durable under dir, fully
// in-memory when dir is empty — configured exactly as the in-process
// coordinator would configure it.
func NewShardServer(dir string, cfg sharded.Config, index int) (*ShardServer, error) {
	shards := cfg.Shards
	if shards <= 0 {
		shards = 1
	}
	if index < 0 || index >= shards {
		return nil, fmt.Errorf("transport: shard index %d out of range for %d shards", index, shards)
	}
	node := cfg.NodeConfig(index)
	var res *incremental.Resolver
	var err error
	if dir == "" {
		res, err = incremental.New(node)
	} else {
		res, err = incremental.OpenResolver(dir, node)
	}
	if err != nil {
		return nil, err
	}
	return &ShardServer{
		cfg:   cfg,
		index: index,
		res:   res,
		conns: make(map[net.Conn]struct{}),
	}, nil
}

// Resolver exposes the underlying shard resolver — the differential suites
// compare its state against the in-process deployment's shards.
func (s *ShardServer) Resolver() *incremental.Resolver { return s.res }

// Serve accepts connections on lis until Close. Each connection is handled
// on its own goroutine; the resolver serializes operations internally.
func (s *ShardServer) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		lis.Close()
		return fmt.Errorf("transport: shard server is closed")
	}
	s.lis = lis
	s.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
			conn.Close()
		}()
	}
}

// Close stops accepting, tears down connections (an in-flight operation
// finishes its journaled apply first — the resolver holds its own lock) and
// seals the shard's journal.
func (s *ShardServer) Close() error {
	s.teardown()
	s.wg.Wait()
	return s.res.Close()
}

// Abandon is Close without the graceful half: the listener and connections
// drop, and the resolver abandons its WAL handles without sealing — the
// in-process crash of the chaos suites.
func (s *ShardServer) Abandon() {
	s.teardown()
	s.wg.Wait()
	s.res.Abandon()
}

func (s *ShardServer) teardown() {
	s.mu.Lock()
	s.closed = true
	if s.lis != nil {
		s.lis.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
}

// handle runs one connection's request loop. A transport error (torn frame,
// closed conn) ends the loop; a semantic refusal is reported as a frameErr
// reply and the loop continues — the client decides what it means.
func (s *ShardServer) handle(conn net.Conn) {
	for {
		typ, payload, err := readFrame(conn)
		if err != nil {
			return
		}
		var rtyp byte
		var reply []byte
		switch typ {
		case frameHello:
			rtyp, reply, err = s.hello(payload)
		case frameBatch:
			rtyp, reply, err = s.applyBatch(payload)
		case frameBootstrap:
			rtyp, reply, err = s.bootstrap(payload)
		case frameState:
			rtyp, reply = s.state()
		default:
			err = fmt.Errorf("transport: shard does not answer frame type %d", typ)
		}
		if err != nil {
			rtyp, reply = frameErr, []byte(err.Error())
		}
		if werr := writeFrame(conn, rtyp, reply); werr != nil {
			return
		}
	}
}

// hello verifies the client's deployment expectation against this shard's
// own configuration and answers with the durable stream position.
func (s *ShardServer) hello(payload []byte) (byte, []byte, error) {
	var h Hello
	if err := unmarshalJSON(payload, &h); err != nil {
		return 0, nil, err
	}
	shards := s.cfg.Shards
	if shards <= 0 {
		shards = 1
	}
	if h.Shards != shards || h.Index != s.index {
		return 0, nil, fmt.Errorf("transport: connection expects shard %d/%d, this server is shard %d/%d", h.Index, h.Shards, s.index, shards)
	}
	if h.Kind != int(s.cfg.Kind) || h.Meta != (s.cfg.Meta != nil) {
		return 0, nil, fmt.Errorf("transport: connection expects kind=%d meta=%t, this server runs kind=%d meta=%t", h.Kind, h.Meta, s.cfg.Kind, s.cfg.Meta != nil)
	}
	c := s.res.Counters()
	reply := Hello{
		Shards: shards, Index: s.index, Kind: int(s.cfg.Kind), Meta: s.cfg.Meta != nil,
		LastSeq: s.res.LastSeq(),
		Inserts: c.Inserts, Updates: c.Updates, Deletes: c.Deletes, Comparisons: c.Comparisons,
	}
	return frameHelloOK, marshalJSON(reply), nil
}

// applyBatch applies a pipelined batch of routed operations in stream order
// and acknowledges the whole frame once: the final sequence number, the
// cumulative comparison counter, and — per operation — the target's match
// neighbors AS OF that operation, so the coordinator can fold the batch
// exactly as if each operation had been acknowledged alone. Every mutation
// arrives this way (a single operation is a batch of one). The shard
// journals each
// operation individually (ApplyRouted), so a re-delivered frame re-acks its
// already-applied prefix idempotently and resumes mid-batch; only round
// trips collapse, not the shard's durability granularity.
func (s *ShardServer) applyBatch(payload []byte) (byte, []byte, error) {
	ops, err := decodeBatch(payload)
	if err != nil {
		return 0, nil, err
	}
	ack := BatchAck{Neighbors: make([][]entity.ID, len(ops))}
	for i, op := range ops {
		if err := s.res.ApplyRouted(context.Background(), op); err != nil {
			return 0, nil, fmt.Errorf("batch operation %d (seq %d): %w", i, op.Seq, err)
		}
		if s.cfg.Meta == nil {
			ack.Neighbors[i] = s.res.MatchNeighbors(op.ID)
		}
	}
	ack.Seq = ops[len(ops)-1].Seq
	ack.Comparisons = s.res.Counters().Comparisons
	return frameBatchAck, encodeBatchAck(nil, ack), nil
}

// bootstrap restores a shipped state into the (pristine) resolver. A
// re-delivered transfer — the first succeeded but its ack was lost — is
// acknowledged again when the resolver is already exactly at the shipped
// sequence number.
func (s *ShardServer) bootstrap(payload []byte) (byte, []byte, error) {
	image, err := wal.DecodeFramed(payload)
	if err != nil {
		return 0, nil, fmt.Errorf("transport: bootstrap blob: %w", err)
	}
	im, err := incremental.DecodeImage(image)
	if err != nil {
		return 0, nil, err
	}
	if s.res.LastSeq() == im.LastSeq && im.LastSeq > 0 {
		return frameBootstrapOK, nil, nil
	}
	if err := s.res.Bootstrap(im); err != nil {
		return 0, nil, err
	}
	return frameBootstrapOK, nil, nil
}

// state answers with counters, stream position and the full match edge set.
func (s *ShardServer) state() (byte, []byte) {
	c := s.res.Counters()
	st := stateJSON{
		LastSeq: s.res.LastSeq(),
		Inserts: c.Inserts, Updates: c.Updates, Deletes: c.Deletes, Comparisons: c.Comparisons,
	}
	if s.cfg.Meta == nil {
		for _, e := range s.res.MatchEdges() {
			st.Edges = append(st.Edges, edgeJSON{A: e.A, B: e.B})
		}
	}
	return frameStateOK, marshalJSON(st)
}
