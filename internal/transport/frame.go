// Package transport is the wire protocol of the networked deployment: a
// coordinator process streams ROUTED operations to shard-server processes
// over length-prefixed frames, with shard-side acknowledgement, bounded
// retry, idempotent replay keyed on the WAL sequence numbers, and snapshot
// shipping so a remote shard bootstraps from a wal.Snapshot blob instead of
// a shared filesystem.
//
// Routing is the traffic win over replicating the stream to every shard:
// each operation's full payload travels only to the shards owning one of
// its blocking keys (sharded.KeyOwner over the key set — the key→shard
// directory of the hash partition); every other shard receives a compact
// slot-advance record that keeps its handle space and operation counters
// aligned. The differential contract survives bit for bit because a
// non-owning shard under replication indexes, matches and counts nothing
// for the operation anyway — see internal/incremental/routed.go.
//
// The frame layer below everything is deliberately dumb: one byte of
// message type, four bytes of big-endian payload length, payload. Every
// mutation reaches a shard as a batch frame (a single operation is a batch
// of one), encoded with the hand-rolled binary codec in codec.go; the
// control plane (hello, bootstrap, state) rides JSON, where clarity beats
// nanoseconds.
package transport

import (
	"encoding/binary"
	"fmt"
	"io"

	"entityres/internal/wal"
)

// Frame types. The zero value is invalid so a torn or zeroed header never
// parses as a legitimate frame.
const (
	// frameHello opens a connection: the client's identity expectation
	// (helloJSON). frameHelloOK answers with the server's identity and
	// durable stream position.
	frameHello byte = 1 + iota
	frameHelloOK
	// 3 and 4 carried a single routed operation and its acknowledgement
	// before every mutation became a batch; they stay reserved so the
	// remaining type numbers keep their values.
	_
	_
	// frameErr carries a UTF-8 error message answering any request. It
	// signals a SEMANTIC refusal — the request was delivered and rejected —
	// never a transport failure.
	frameErr
	// frameBootstrap ships a full shard state as a wal.Snapshot blob;
	// frameBootstrapOK acknowledges the restore.
	frameBootstrap
	frameBootstrapOK
	// frameState requests the shard's counters and match edges (stateJSON);
	// frameStateOK answers.
	frameState
	frameStateOK
	// frameBatch pipelines a whole batch of routed operations in one round
	// trip (count-prefixed binary codec); frameBatchAck answers with one
	// cumulative acknowledgement carrying the final sequence number, the
	// cumulative comparison counter and the per-operation neighbor feed.
	frameBatch
	frameBatchAck
)

// frameHeaderBytes is the fixed frame header: type byte + length.
const frameHeaderBytes = 1 + 4

// maxFramePayload bounds a frame's payload. It matches the WAL's record
// bound: anything a shard can journal fits a frame, and a corrupt length
// field cannot demand a multi-gigabyte allocation.
const maxFramePayload = wal.MaxRecordBytes

// writeFrame writes one frame as a single Write call, so a concurrent
// writer bug can never interleave a header into another frame's payload.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > maxFramePayload {
		return fmt.Errorf("transport: frame payload of %d bytes exceeds the %d-byte bound", len(payload), maxFramePayload)
	}
	buf := make([]byte, frameHeaderBytes+len(payload))
	buf[0] = typ
	binary.BigEndian.PutUint32(buf[1:5], uint32(len(payload)))
	copy(buf[frameHeaderBytes:], payload)
	_, err := w.Write(buf)
	return err
}

// readFrame reads one frame, validating the type and length fields before
// allocating for the payload.
func readFrame(r io.Reader) (byte, []byte, error) {
	var hdr [frameHeaderBytes]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	typ := hdr[0]
	if typ < frameHello || typ > frameBatchAck {
		return 0, nil, fmt.Errorf("transport: unknown frame type %d", typ)
	}
	n := binary.BigEndian.Uint32(hdr[1:5])
	if n > maxFramePayload {
		return 0, nil, fmt.Errorf("transport: frame claims %d payload bytes, bound is %d", n, maxFramePayload)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return typ, payload, nil
}
