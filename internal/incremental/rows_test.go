package incremental_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"entityres/internal/blocking"
	"entityres/internal/entity"
	"entityres/internal/incremental"
	"entityres/internal/matching"
	"entityres/internal/metablocking"
	"entityres/internal/sharded"
	"entityres/internal/token"
)

// The row store property: the token rows the resolver decides pairs on
// equal a fresh tokenization of each live description under the matcher's
// profiler, whatever the op stream did to it, and a dead slot holds no row.
// With token blocking under the matcher's profiler a row is the block
// index's own key list, never a copy.

// rowsMode is one resolver configuration of the row store property.
type rowsMode struct {
	name   string
	kind   entity.Kind
	shared bool
	// config builds a fresh configuration: a shard node's key lens belongs
	// to one resolver, so every resolver of a run gets its own.
	config func() incremental.Config
}

func rowsModes() []rowsMode {
	jaccard := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
	plain := func(kind entity.Kind, blocker blocking.StreamableBlocker, meta *metablocking.MetaBlocker) func() incremental.Config {
		return func() incremental.Config {
			return incremental.Config{Kind: kind, Blocker: blocker, Matcher: jaccard, Workers: 2, Meta: meta}
		}
	}
	short := token.DefaultProfiler()
	short.MinTokenLen = 4
	shard := sharded.Config{Kind: entity.Dirty, Blocker: &blocking.TokenBlocking{}, Matcher: jaccard, Workers: 2, Shards: 2}
	return []rowsMode{
		{"shared/dirty", entity.Dirty, true, plain(entity.Dirty, &blocking.TokenBlocking{}, nil)},
		{"shared/clean-clean", entity.CleanClean, true, plain(entity.CleanClean, &blocking.TokenBlocking{Profiler: token.DefaultProfiler()}, nil)},
		{"shared/meta", entity.Dirty, true, plain(entity.Dirty, &blocking.TokenBlocking{},
			&metablocking.MetaBlocker{Weight: metablocking.CBS, Prune: metablocking.WEP})},
		{"qgrams", entity.Dirty, false, plain(entity.Dirty, &blocking.QGramsBlocking{}, nil)},
		{"other-profiler", entity.Dirty, false, plain(entity.Dirty, &blocking.TokenBlocking{Profiler: short}, nil)},
		{"shard-node", entity.Dirty, false, func() incremental.Config { return shard.NodeConfig(0) }},
	}
}

// TestStreamingRowsEqualTokenRows drives random op streams — inserts,
// updates, deletes, deletes then reinserts by URI, single ops and
// ApplyBatch runs, and batches refused at validation — through a durable
// resolver, checking the row store after every step, after a crash and
// reopen, and after shipping the state into a fresh resolver with
// Bootstrap. The reopened and bootstrapped resolvers then finish the
// stream side by side, read in lockstep, and must agree on matches, blocks
// and counters, comparisons included.
func TestStreamingRowsEqualTokenRows(t *testing.T) {
	for i, mode := range rowsModes() {
		t.Run(mode.name, func(t *testing.T) {
			t.Parallel()
			runRows(t, mode, int64(601+i))
		})
	}
}

func runRows(t *testing.T, mode rowsMode, seed int64) {
	ctx := context.Background()
	prof, _ := mode.config().Matcher.RowProfiler()
	durable := func() incremental.Config {
		cfg := mode.config()
		cfg.Durable = incremental.DurableOptions{SnapshotEvery: 17, NoSync: true}
		return cfg
	}
	dir := t.TempDir()
	r, err := incremental.OpenResolver(dir, durable())
	if err != nil {
		t.Fatal(err)
	}
	if r.SharedRows() != mode.shared {
		t.Fatalf("SharedRows = %v, want %v", r.SharedRows(), mode.shared)
	}
	script := generateScript(t, mode.kind, seed, 240, opMixes[1])
	rng := rand.New(rand.NewSource(seed))
	stored, refused := 0, 0
	at := 0
	for at < 200 {
		n := 1 + rng.Intn(12)
		chunk := script[at:min(at+n, 200)]
		switch roll := rng.Intn(5); {
		case roll == 0:
			err = r.Apply(ctx, chunk[0])
			chunk = chunk[:1]
		case roll == 1:
			// A batch whose last record names no description: validation
			// refuses it whole and nothing applies.
			bad := append(incremental.OpRecords(chunk), incremental.Record{Kind: incremental.OpDelete, ID: -1, URI: "u:nowhere"})
			if err := r.ApplyBatch(ctx, bad); err == nil {
				t.Fatalf("op %d: a batch deleting an unknown URI applied", at)
			}
			refused++
			chunk = nil
		default:
			err = r.ApplyBatch(ctx, incremental.OpRecords(chunk))
		}
		if err != nil {
			t.Fatalf("op %d: %v", at, err)
		}
		at += len(chunk)
		stored += checkRows(t, fmt.Sprintf("op %d", at), r, prof, mode.shared, false)
	}
	if refused == 0 || stored == 0 {
		t.Fatalf("the stream refused %d batches and held %d rows; the property went unexercised", refused, stored)
	}

	r.Abandon()
	re, err := incremental.OpenResolver(dir, durable())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	checkRows(t, "reopen", re, prof, mode.shared, false)
	im, err := incremental.ImageOf(re)
	if err != nil {
		t.Fatal(err)
	}
	boot, err := incremental.New(mode.config())
	if err != nil {
		t.Fatal(err)
	}
	if err := boot.Bootstrap(im); err != nil {
		t.Fatal(err)
	}
	if got := checkRows(t, "bootstrap", boot, prof, mode.shared, false); got != 0 {
		t.Fatalf("bootstrap restored %d rows; the store is never shipped", got)
	}
	checkRows(t, "reopen, filled", re, prof, mode.shared, true)
	checkRows(t, "bootstrap, filled", boot, prof, mode.shared, true)
	// Both resolvers are read after every op: under meta-blocking each read
	// reconciles, and a resolver read more often evaluates more pairs, so
	// the comparison counters agree only when the reads do.
	for _, op := range script[at:] {
		for _, res := range []*incremental.Resolver{re, boot} {
			if err := res.Apply(ctx, op); err != nil {
				t.Fatal(err)
			}
		}
		checkRows(t, "bootstrap tail", boot, prof, mode.shared, false)
		checkRows(t, "reopen tail", re, prof, mode.shared, false)
	}
	assertSameResolverState(t, boot, re)
}

// checkRows asserts the row store property on r and returns the number of
// live rows it holds: every dead slot's row is nil, and every live row
// present (or, with fill, every live row as a pair reads it) equals the
// matcher's tokenization of the description — with shared rows, the block
// index's own key list. Reads reconcile first, so under meta-blocking the
// deferred evaluations have filled their rows.
func checkRows(t *testing.T, at string, r *incremental.Resolver, prof *token.Profiler, shared, fill bool) int {
	t.Helper()
	mustStats(t, r)
	held := 0
	check := func(id entity.ID, row []string, d *entity.Description) {
		t.Helper()
		if want := matching.TokenRow(prof, d); !slices.Equal(row, want) {
			t.Fatalf("%s: slot %d row %v, want a fresh tokenization %v", at, id, row, want)
		}
		if keys := r.Keys(id); shared && len(row) > 0 && &row[0] != &keys[0] {
			t.Fatalf("%s: slot %d row is a copy of its key list, not the list", at, id)
		}
	}
	for id, row := range r.RowStore() {
		id := entity.ID(id)
		d, live := r.Get(id)
		if !live {
			if row != nil {
				t.Fatalf("%s: dead slot %d holds row %v", at, id, row)
			}
			continue
		}
		if row != nil {
			held++
			check(id, row, d)
		}
		if fill {
			check(id, r.LiveRow(id), d)
		}
	}
	return held
}
