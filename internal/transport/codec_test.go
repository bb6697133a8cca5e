package transport

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"entityres/internal/entity"
	"entityres/internal/incremental"
)

func sampleOps() []incremental.RoutedOp {
	return []incremental.RoutedOp{
		{Seq: 1, Kind: incremental.OpInsert, ID: 0, URI: "urn:a", Source: 1,
			Attrs: []entity.Attribute{{Name: "name", Value: "alice"}, {Name: "city", Value: "athens"}}},
		{Seq: 2, Kind: incremental.OpInsert, Advance: true, ID: 1},
		{Seq: 3, Kind: incremental.OpUpdate, ID: 0, URI: "urn:a", Source: 1,
			Attrs: []entity.Attribute{{Name: "name", Value: ""}}},
		{Seq: 4, Kind: incremental.OpDelete, ID: 0},
		{Seq: 1 << 40, Kind: incremental.OpUpdate, Advance: true, ID: 1 << 30},
		{Seq: 5, Kind: incremental.OpInsert, URI: strings.Repeat("é", 300), Attrs: nil},
	}
}

func TestOpCodecRoundTrip(t *testing.T) {
	for _, op := range sampleOps() {
		got, err := decodeOp(encodeOp(nil, op))
		if err != nil {
			t.Fatalf("decode(encode(%+v)): %v", op, err)
		}
		if !reflect.DeepEqual(got, op) {
			t.Fatalf("round trip changed the op:\nsent %+v\ngot  %+v", op, got)
		}
	}
}

func TestOpCodecRejects(t *testing.T) {
	valid := encodeOp(nil, sampleOps()[0])
	cases := map[string][]byte{
		"empty":            {},
		"truncated header": valid[:2],
		"truncated attrs":  valid[:len(valid)-3],
		"trailing bytes":   append(append([]byte{}, valid...), 0),
		"hostile count":    {1, byte(incremental.OpInsert), 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x7f},
	}
	for name, data := range cases {
		if _, err := decodeOp(data); err == nil {
			t.Errorf("%s: corrupt op record accepted", name)
		}
	}
	// Unknown kinds and flags are refused even when well-formed.
	bad := encodeOp(nil, incremental.RoutedOp{Seq: 1, Kind: 99, ID: 0})
	if _, err := decodeOp(bad); err == nil {
		t.Error("unknown op kind accepted")
	}
	// The flags byte sits right after the 1-byte seq varint and the kind.
	flagged := append([]byte{}, valid...)
	flagged[2] |= 0x80
	if _, err := decodeOp(flagged); err == nil {
		t.Error("unknown flag bits accepted")
	}
}

func TestFrameBounds(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frameBatch, make([]byte, maxFramePayload+1)); err == nil {
		t.Fatal("oversized frame written")
	}
	if err := writeFrame(&buf, frameBatch, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readFrame(&buf)
	if err != nil || typ != frameBatch || string(payload) != "ok" {
		t.Fatalf("round trip: typ=%d payload=%q err=%v", typ, payload, err)
	}
}

// FuzzFrame drives arbitrary bytes through the frame reader (mirroring the
// WAL's FuzzSegmentRecords): it must never panic or over-allocate, and any
// frame it accepts must re-encode to bytes it accepts again identically.
func FuzzFrame(f *testing.F) {
	frame := func(typ byte, payload []byte) []byte {
		var buf bytes.Buffer
		if err := writeFrame(&buf, typ, payload); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add([]byte{})
	f.Add(frame(frameHello, []byte(`{"shards":2}`)))
	f.Add(frame(frameBatchAck, encodeBatchAck(nil, BatchAck{Seq: 1, Neighbors: [][]entity.ID{{2}}})))
	f.Add(frame(frameBatch, encodeBatch(nil, sampleOps()[:2])))
	f.Add(frame(frameErr, []byte("refused")))
	// Torn header, torn payload, unknown type, hostile length.
	f.Add([]byte{byte(frameBatch), 0, 0})
	f.Add([]byte{byte(frameBatch), 0, 0, 0, 9, 'x', 'y'})
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Add([]byte{99, 0, 0, 0, 1, 'x'})
	f.Add([]byte{byte(frameBatchAck), 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if typ < frameHello || typ > frameBatchAck {
			t.Fatalf("accepted frame type %d", typ)
		}
		if len(payload) > maxFramePayload {
			t.Fatalf("accepted %d-byte payload", len(payload))
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, typ, payload); err != nil {
			t.Fatalf("re-encoding accepted frame: %v", err)
		}
		typ2, payload2, err := readFrame(&buf)
		if err != nil || typ2 != typ || !bytes.Equal(payload2, payload) {
			t.Fatalf("frame not re-read identically: typ %d->%d err %v", typ, typ2, err)
		}
	})
}

// FuzzOpCodec drives arbitrary bytes through the hot-path op decoder: never
// a panic, never an accepted record that fails to round-trip bit-exactly.
func FuzzOpCodec(f *testing.F) {
	for _, op := range sampleOps() {
		f.Add(encodeOp(nil, op))
	}
	f.Add([]byte{})
	f.Add([]byte{0x80})
	f.Add([]byte{1, 1, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		op, err := decodeOp(data)
		if err != nil {
			return
		}
		enc := encodeOp(nil, op)
		again, err := decodeOp(enc)
		if err != nil {
			t.Fatalf("re-decoding accepted op: %v", err)
		}
		if !reflect.DeepEqual(again, op) {
			t.Fatalf("op not re-decoded identically:\nfirst  %+v\nsecond %+v", op, again)
		}
	})
}
