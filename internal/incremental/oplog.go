package incremental

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"entityres/internal/entity"
)

// OpKind enumerates streaming operations.
type OpKind int

const (
	// OpInsert adds a new description.
	OpInsert OpKind = iota
	// OpUpdate replaces the attributes of an existing description.
	OpUpdate
	// OpDelete removes an existing description.
	OpDelete
	// OpReconcile marks an effective deferred meta-blocking reconcile in a
	// durable resolver's journal. Reads mutate state under live
	// meta-blocking — matcher decisions are evaluated, cached and counted —
	// so the journal records them and recovery replays them, keeping
	// comparison counters and decision caches bit-exact across a crash.
	// OpReconcile never appears in URI operation logs (ReadOps rejects it).
	OpReconcile
	// OpBatch is a multi-op journal record: the sub-records of one
	// ApplyBatch call, journaled as a single append so crash recovery
	// replays the batch atomically or not at all. Like OpReconcile it is a
	// journal-only kind — it never appears in URI operation logs.
	OpBatch
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpUpdate:
		return "update"
	case OpDelete:
		return "delete"
	case OpReconcile:
		return "reconcile"
	case OpBatch:
		return "batch"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op is one streaming operation addressed by URI — the exchange form of the
// operation log that erctl watch replays. Handle-level callers use the
// Resolver methods directly.
type Op struct {
	Kind   OpKind
	URI    string
	Source int
	// Attrs is the full attribute set of the description (insert, update).
	Attrs []entity.Attribute
}

// Batcher is the one apply path every deployment form implements: the
// single-node resolver, the in-process sharded coordinator and the
// networked coordinator. Their single-operation methods are batches of one
// built by the helpers below, so the forms convert operations in one place.
type Batcher interface {
	ApplyBatch(ctx context.Context, recs []Record) error
}

// InsertOne applies a one-record insert batch and returns the handle it
// assigned. The context gates admission only.
func InsertOne(ctx context.Context, b Batcher, d *entity.Description) (entity.ID, error) {
	if d == nil {
		return -1, fmt.Errorf("incremental: insert of nil description")
	}
	recs := []Record{{Kind: OpInsert, URI: d.URI, Source: d.Source, Attrs: d.Attrs}}
	if err := b.ApplyBatch(ctx, recs); err != nil {
		return -1, err
	}
	return recs[0].ID, nil
}

// UpdateOne applies a one-record update batch to the live handle id.
func UpdateOne(ctx context.Context, b Batcher, id entity.ID, attrs []entity.Attribute) error {
	if id < 0 {
		return fmt.Errorf("incremental: update of unknown description %d", id)
	}
	return b.ApplyBatch(ctx, []Record{{Kind: OpUpdate, ID: id, Attrs: attrs}})
}

// DeleteOne applies a one-record delete batch to the live handle id.
func DeleteOne(ctx context.Context, b Batcher, id entity.ID) error {
	if id < 0 {
		return fmt.Errorf("incremental: delete of unknown description %d", id)
	}
	return b.ApplyBatch(ctx, []Record{{Kind: OpDelete, ID: id}})
}

// ApplyOne applies one URI-addressed operation as a batch of one.
func ApplyOne(ctx context.Context, b Batcher, op Op) error {
	return b.ApplyBatch(ctx, OpRecords([]Op{op}))
}

// OpRecords renders URI-addressed operations as batch records. Updates and
// deletes carry ID -1, which batch planning resolves by URI (the zero value
// would address handle 0).
func OpRecords(ops []Op) []Record {
	recs := make([]Record, len(ops))
	for i, op := range ops {
		recs[i] = Record{Kind: op.Kind, ID: -1, URI: op.URI, Source: op.Source, Attrs: op.Attrs}
	}
	return recs
}

// Apply executes one URI-addressed operation on the resolver.
func (r *Resolver) Apply(ctx context.Context, op Op) error { return ApplyOne(ctx, r, op) }

// opJSON is the wire form of an Op: one JSON object per line.
type opJSON struct {
	Op     string     `json:"op"`
	URI    string     `json:"uri"`
	Source int        `json:"source,omitempty"`
	Attrs  []attrJSON `json:"attrs,omitempty"`
}

type attrJSON struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// WriteOps serializes operations as JSON lines through a buffered writer.
// The buffer is flushed — and the flush error checked — on every return
// path, including an early return from a mid-stream encoding failure, so a
// sink error can never be silently swallowed by buffering.
func WriteOps(w io.Writer, ops []Op) (err error) {
	bw := bufio.NewWriter(w)
	defer func() {
		if ferr := bw.Flush(); ferr != nil && err == nil {
			err = fmt.Errorf("incremental: flushing ops: %w", ferr)
		}
	}()
	enc := json.NewEncoder(bw)
	for i, op := range ops {
		j := opJSON{Op: op.Kind.String(), URI: op.URI, Source: op.Source}
		for _, a := range op.Attrs {
			j.Attrs = append(j.Attrs, attrJSON{Name: a.Name, Value: a.Value})
		}
		if err := enc.Encode(j); err != nil {
			return fmt.Errorf("incremental: op %d: %w", i, err)
		}
	}
	return nil
}

// ReadOps parses a JSON-lines operation log. Blank lines and lines starting
// with '#' are skipped.
func ReadOps(r io.Reader) ([]Op, error) {
	var out []Op
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var j opJSON
		if err := json.Unmarshal([]byte(line), &j); err != nil {
			return nil, fmt.Errorf("incremental: ops line %d: %w", lineNo, err)
		}
		op := Op{URI: j.URI, Source: j.Source}
		switch j.Op {
		case "insert":
			op.Kind = OpInsert
		case "update":
			op.Kind = OpUpdate
		case "delete":
			op.Kind = OpDelete
		default:
			return nil, fmt.Errorf("incremental: ops line %d: unknown op %q", lineNo, j.Op)
		}
		for _, a := range j.Attrs {
			op.Attrs = append(op.Attrs, entity.Attribute{Name: a.Name, Value: a.Value})
		}
		out = append(out, op)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("incremental: %w", err)
	}
	return out, nil
}
