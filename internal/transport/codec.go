// The binary codec of the routed op stream: batch frames of routed
// operations and their cumulative acknowledgements travel as hand-rolled
// uvarint records — no reflection, no per-field interface dispatch. Every
// decode is fully bounds-checked and returns an error rather than
// panicking; FuzzOpCodec, FuzzBatchCodec and FuzzBatchAckCodec drive
// arbitrary bytes through it.
package transport

import (
	"encoding/binary"
	"fmt"
	"math"

	"entityres/internal/entity"
	"entityres/internal/incremental"
)

// opFlagAdvance marks a slot-advance record in the encoded flags byte.
const opFlagAdvance = 1

// encodeOp appends op's wire form to buf.
func encodeOp(buf []byte, op incremental.RoutedOp) []byte {
	buf = binary.AppendUvarint(buf, op.Seq)
	var flags byte
	if op.Advance {
		flags |= opFlagAdvance
	}
	buf = append(buf, byte(op.Kind), flags)
	buf = binary.AppendUvarint(buf, uint64(op.ID))
	buf = appendString(buf, op.URI)
	buf = binary.AppendUvarint(buf, uint64(op.Source))
	buf = binary.AppendUvarint(buf, uint64(len(op.Attrs)))
	for _, a := range op.Attrs {
		buf = appendString(buf, a.Name)
		buf = appendString(buf, a.Value)
	}
	return buf
}

// decodeOp parses one routed operation, rejecting truncated fields,
// oversized counts and trailing garbage.
func decodeOp(data []byte) (incremental.RoutedOp, error) {
	d := decoder{buf: data}
	op := d.op()
	d.finish()
	if d.err != nil {
		return incremental.RoutedOp{}, d.err
	}
	return op, nil
}

// op reads one routed operation from the cursor — the body of the batch
// decoder, and of decodeOp for a lone record. Kind and flag validation
// fails the cursor like any truncation.
func (d *decoder) op() incremental.RoutedOp {
	var op incremental.RoutedOp
	op.Seq = d.uvarint()
	kind := d.byte()
	flags := d.byte()
	op.Kind = incremental.OpKind(kind)
	op.Advance = flags&opFlagAdvance != 0
	op.ID = entity.ID(d.length())
	op.URI = d.string()
	op.Source = int(d.length())
	n := d.length()
	// Each attribute needs at least two length bytes; a count beyond the
	// remaining payload is corrupt, and checking before allocating keeps a
	// hostile count from demanding gigabytes.
	if d.err == nil && n > len(d.buf)-d.off {
		d.fail("attribute count %d exceeds remaining payload", n)
	}
	if d.err == nil && n > 0 {
		op.Attrs = make([]entity.Attribute, 0, n)
		for i := 0; i < n; i++ {
			name := d.string()
			value := d.string()
			op.Attrs = append(op.Attrs, entity.Attribute{Name: name, Value: value})
		}
	}
	if d.err == nil && flags&^byte(opFlagAdvance) != 0 {
		d.fail("op record has unknown flags %#x", flags)
	}
	if d.err == nil {
		switch op.Kind {
		case incremental.OpInsert, incremental.OpUpdate, incremental.OpDelete:
		default:
			d.fail("op record has kind %d", kind)
		}
	}
	if d.err != nil {
		return incremental.RoutedOp{}
	}
	return op
}

// encodeBatch appends a batch frame's wire form to buf: a count prefix
// followed by each routed operation in stream order.
func encodeBatch(buf []byte, ops []incremental.RoutedOp) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ops)))
	for _, op := range ops {
		buf = encodeOp(buf, op)
	}
	return buf
}

// decodeBatch parses a batch frame. An empty batch is rejected: the wire
// never carries one (ApplyBatch no-ops before framing), so seeing one means
// corruption.
func decodeBatch(data []byte) ([]incremental.RoutedOp, error) {
	d := decoder{buf: data}
	n := d.length()
	if d.err == nil && n == 0 {
		d.fail("batch frame carries no operations")
	}
	// Each op needs at least a handful of bytes; a count beyond the
	// remaining payload is corrupt.
	if d.err == nil && n > len(d.buf)-d.off {
		d.fail("batch op count %d exceeds remaining payload", n)
	}
	var ops []incremental.RoutedOp
	if d.err == nil {
		ops = make([]incremental.RoutedOp, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			ops = append(ops, d.op())
		}
	}
	d.finish()
	if d.err != nil {
		return nil, d.err
	}
	return ops, nil
}

// BatchAck is a shard's single cumulative acknowledgement of a whole batch
// frame: the final sequence number it is current through, its cumulative
// matcher-invocation counter after the batch, and — per operation, in
// stream order — the operated-on description's match neighbors as of the
// end of the shard's run that applied it (an insert run is applied whole;
// every other operation is a run of one). A run of inserts retires no
// edges, so the capture lets the coordinator fold the batch exactly as if
// its operations had been acknowledged one at a time.
type BatchAck struct {
	Seq         uint64
	Comparisons int64
	Neighbors   [][]entity.ID
}

// encodeBatchAck appends ack's wire form to buf.
func encodeBatchAck(buf []byte, ack BatchAck) []byte {
	buf = binary.AppendUvarint(buf, ack.Seq)
	buf = binary.AppendUvarint(buf, uint64(ack.Comparisons))
	buf = binary.AppendUvarint(buf, uint64(len(ack.Neighbors)))
	for _, nbs := range ack.Neighbors {
		buf = binary.AppendUvarint(buf, uint64(len(nbs)))
		for _, id := range nbs {
			buf = binary.AppendUvarint(buf, uint64(id))
		}
	}
	return buf
}

// decodeBatchAck parses one cumulative batch acknowledgement.
func decodeBatchAck(data []byte) (BatchAck, error) {
	var ack BatchAck
	d := decoder{buf: data}
	ack.Seq = d.uvarint()
	comp := d.uvarint()
	if d.err == nil && comp > math.MaxInt64 {
		d.fail("comparison counter %d overflows", comp)
	}
	ack.Comparisons = int64(comp)
	n := d.length()
	if d.err == nil && n > len(d.buf)-d.off {
		d.fail("batch ack op count %d exceeds remaining payload", n)
	}
	if d.err == nil && n > 0 {
		ack.Neighbors = make([][]entity.ID, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			m := d.length()
			if d.err == nil && m > len(d.buf)-d.off {
				d.fail("neighbor count %d exceeds remaining payload", m)
			}
			var nbs []entity.ID
			if d.err == nil && m > 0 {
				nbs = make([]entity.ID, 0, m)
				for j := 0; j < m; j++ {
					nbs = append(nbs, entity.ID(d.length()))
				}
			}
			ack.Neighbors = append(ack.Neighbors, nbs)
		}
	}
	d.finish()
	if d.err != nil {
		return BatchAck{}, d.err
	}
	return ack, nil
}

// decoder is a bounds-checked cursor over an encoded record. The first
// failure sticks; subsequent reads return zero values, so decode functions
// read straight through and check err once.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("transport: "+format, args...)
	}
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail("truncated record")
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("truncated or overlong varint")
		return 0
	}
	d.off += n
	return v
}

// length reads a uvarint that must fit a non-negative int — handles,
// sources, counts and string lengths.
func (d *decoder) length() int {
	v := d.uvarint()
	if d.err == nil && v > math.MaxInt32 {
		d.fail("length %d overflows", v)
		return 0
	}
	return int(v)
}

func (d *decoder) string() string {
	n := d.length()
	if d.err != nil {
		return ""
	}
	if n > len(d.buf)-d.off {
		d.fail("string of %d bytes exceeds remaining payload", n)
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

// finish rejects trailing bytes after a successful parse.
func (d *decoder) finish() {
	if d.err == nil && d.off != len(d.buf) {
		d.fail("%d trailing bytes after record", len(d.buf)-d.off)
	}
}

// appendString appends a length-prefixed string.
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}
