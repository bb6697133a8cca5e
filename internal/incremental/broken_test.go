package incremental

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"entityres/internal/blocking"
	"entityres/internal/entity"
	"entityres/internal/matching"
	"entityres/internal/metablocking"
)

// poisonableJournal wraps the real WAL journal and fails every Record once
// poisoned — the shape of a disk that died under a live resolver.
type poisonableJournal struct {
	inner Journal
	fail  error
}

func (p *poisonableJournal) Record(rec Record) error {
	if p.fail != nil {
		return p.fail
	}
	return p.inner.Record(rec)
}
func (p *poisonableJournal) Rollback() error                  { return p.inner.Rollback() }
func (p *poisonableJournal) Checkpoint(snapshot []byte) error { return p.inner.Checkpoint(snapshot) }
func (p *poisonableJournal) Close() error                     { return p.inner.Close() }

// TestBrokenJournalPoisonsReadsAndRecovers: a reconcile that cannot be
// journaled poisons the resolver — every reconciling read and every
// mutation fails with an error wrapping ErrBroken, permanently for this
// process — while the directory itself stays consistent: reopening it
// recovers the acknowledged prefix bit-exactly.
func TestBrokenJournalPoisonsReadsAndRecovers(t *testing.T) {
	cfg := Config{
		Kind:    entity.Dirty,
		Blocker: &blocking.TokenBlocking{},
		Matcher: &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5},
		Meta:    &metablocking.MetaBlocker{Weight: metablocking.CBS, Prune: metablocking.WEP},
		Durable: DurableOptions{NoSync: true},
	}
	dir := t.TempDir()
	r, err := OpenResolver(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	insert := func(res *Resolver, uri, name string) {
		t.Helper()
		if _, err := res.Insert(ctx, person(uri, name, "berlin")); err != nil {
			t.Fatalf("insert %s: %v", uri, err)
		}
	}
	insert(r, "u:a", "alice smith")
	insert(r, "u:b", "alice smith")
	if err := r.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	// Leave deferred meta-blocking work pending, then poison the journal:
	// the next reconcile cannot record itself.
	insert(r, "u:c", "alice smith")
	pj := &poisonableJournal{inner: r.journal, fail: fmt.Errorf("simulated disk failure")}
	r.journal = pj

	if _, err := r.Stats(); !errors.Is(err, ErrBroken) {
		t.Fatalf("Stats on a poisoned journal = %v, want ErrBroken", err)
	}
	// The poison is typed and uniform across the read surface...
	if err := r.Flush(ctx); !errors.Is(err, ErrBroken) {
		t.Fatalf("Flush = %v, want ErrBroken", err)
	}
	if _, err := r.Matches(); !errors.Is(err, ErrBroken) {
		t.Fatalf("Matches = %v, want ErrBroken", err)
	}
	if _, err := r.Clusters(); !errors.Is(err, ErrBroken) {
		t.Fatalf("Clusters = %v, want ErrBroken", err)
	}
	if _, _, err := r.Snapshot(); !errors.Is(err, ErrBroken) {
		t.Fatalf("Snapshot = %v, want ErrBroken", err)
	}
	if _, err := r.MatchedWith(0); !errors.Is(err, ErrBroken) {
		t.Fatalf("MatchedWith = %v, want ErrBroken", err)
	}
	if _, err := r.RestructuredBlocks(); !errors.Is(err, ErrBroken) {
		t.Fatalf("RestructuredBlocks = %v, want ErrBroken", err)
	}
	// ...and over mutations.
	if _, err := r.Insert(ctx, person("u:d", "dave", "paris")); !errors.Is(err, ErrBroken) {
		t.Fatalf("Insert = %v, want ErrBroken", err)
	}
	if err := r.Update(ctx, 0, person("u:a", "alice smith", "berlin").Attrs); !errors.Is(err, ErrBroken) {
		t.Fatalf("Update = %v, want ErrBroken", err)
	}
	if err := r.Delete(0); !errors.Is(err, ErrBroken) {
		t.Fatalf("Delete = %v, want ErrBroken", err)
	}
	// Non-reconciling reads keep serving the in-memory picture.
	if st := r.Counters(); st.Inserts != 3 {
		t.Fatalf("Counters after poison = %+v, want the 3 acknowledged inserts", st)
	}
	if _, ok := r.Lookup("u:a"); !ok {
		t.Fatal("Lookup stopped answering after poison")
	}
	// The poison is sticky: a healed journal does not un-break the
	// resolver — the divergence already happened.
	pj.fail = nil
	if _, err := r.Stats(); !errors.Is(err, ErrBroken) {
		t.Fatalf("Stats after journal healed = %v, want ErrBroken to stick", err)
	}

	// The durable truth is unharmed: reopening the directory recovers
	// exactly the acknowledged operations, equal to an uninterrupted
	// in-memory run of the same ops with the same read schedule.
	// Abandon releases the WAL directory lock through the journal; hand the
	// real one back before the hard stop so the reopen below can take it.
	r.journal = pj.inner
	r.Abandon()
	re, err := OpenResolver(dir, cfg)
	if err != nil {
		t.Fatalf("reopening after poison: %v", err)
	}
	defer re.Close()
	memCfg := cfg
	memCfg.Durable = DurableOptions{}
	ref, err := New(memCfg)
	if err != nil {
		t.Fatal(err)
	}
	insert(ref, "u:a", "alice smith")
	insert(ref, "u:b", "alice smith")
	if err := ref.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	insert(ref, "u:c", "alice smith")
	got, want := mustStats(t, re), mustStats(t, ref)
	if got != want {
		t.Fatalf("recovered stats %+v diverge from uninterrupted reference %+v", got, want)
	}
	if g, w := mustMatches(t, re).Len(), mustMatches(t, ref).Len(); g != w {
		t.Fatalf("recovered matches %d, reference %d", g, w)
	}
}

// TestApplyBatchFailurePaths: the batch write path's failure windows. A
// cancelled context is refused at admission; a journal append that fails
// rejects the whole batch without applying or poisoning anything; a
// resolver already broken refuses batches with the sticky typed error. In
// every case the in-memory state is untouched and counters don't move.
func TestApplyBatchFailurePaths(t *testing.T) {
	cfg := Config{
		Kind:    entity.Dirty,
		Blocker: &blocking.TokenBlocking{},
		Matcher: &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5},
		Durable: DurableOptions{NoSync: true},
	}
	ctx := context.Background()
	batch := func(uri, name string) []Record {
		return []Record{{Kind: OpInsert, ID: -1, URI: uri, Attrs: person(uri, name, "berlin").Attrs}}
	}

	t.Run("cancelled-admission", func(t *testing.T) {
		t.Parallel()
		r, err := OpenResolver(t.TempDir(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if _, err := r.Insert(ctx, person("u:a", "alice smith", "berlin")); err != nil {
			t.Fatal(err)
		}
		appends := r.Perf().JournalAppends
		cctx, cancel := context.WithCancel(ctx)
		cancel()
		if err := r.ApplyBatch(cctx, batch("u:b", "bob jones")); !errors.Is(err, context.Canceled) {
			t.Fatalf("ApplyBatch under a cancelled context = %v, want context.Canceled", err)
		}
		if r.Perf().JournalAppends != appends {
			t.Fatal("refused batch reached the journal")
		}
		if _, ok := r.Lookup("u:b"); ok {
			t.Fatal("refused batch applied")
		}
		// Admission-refused, not poisoned: the same batch lands once the
		// context is live.
		if err := r.ApplyBatch(ctx, batch("u:b", "bob jones")); err != nil {
			t.Fatalf("batch after admission refusal: %v", err)
		}
	})

	t.Run("journal-failure", func(t *testing.T) {
		t.Parallel()
		r, err := OpenResolver(t.TempDir(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if _, err := r.Insert(ctx, person("u:a", "alice smith", "berlin")); err != nil {
			t.Fatal(err)
		}
		before := mustStats(t, r)
		appends := r.Perf().JournalAppends
		pj := &poisonableJournal{inner: r.journal, fail: fmt.Errorf("simulated disk failure")}
		r.journal = pj
		err = r.ApplyBatch(ctx, batch("u:b", "bob jones"))
		if err == nil || errors.Is(err, ErrBroken) {
			t.Fatalf("ApplyBatch on a failing journal = %v, want the journal error without poison", err)
		}
		if r.Perf().JournalAppends != appends {
			t.Fatal("failed append counted as a journal append")
		}
		if _, ok := r.Lookup("u:b"); ok {
			t.Fatal("unjournaled batch applied")
		}
		if after := mustStats(t, r); after != before {
			t.Fatalf("failed batch mutated counters: %+v -> %+v", before, after)
		}
		// Nothing was journaled and nothing applied, so the resolver is
		// not broken: heal the disk and the same batch lands.
		pj.fail = nil
		if err := r.ApplyBatch(ctx, batch("u:b", "bob jones")); err != nil {
			t.Fatalf("batch after the journal healed: %v", err)
		}
	})

	t.Run("broken-refuses-batches", func(t *testing.T) {
		t.Parallel()
		mcfg := cfg
		mcfg.Meta = &metablocking.MetaBlocker{Weight: metablocking.CBS, Prune: metablocking.WEP}
		r, err := OpenResolver(t.TempDir(), mcfg)
		if err != nil {
			t.Fatal(err)
		}
		// Leave deferred meta-blocking work pending, then poison the
		// journal: the reconcile cannot record itself and breaks the
		// resolver, exactly as in the per-op poison test above.
		if _, err := r.Insert(ctx, person("u:a", "alice smith", "berlin")); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Insert(ctx, person("u:b", "alice smith", "berlin")); err != nil {
			t.Fatal(err)
		}
		pj := &poisonableJournal{inner: r.journal, fail: fmt.Errorf("simulated disk failure")}
		r.journal = pj
		if _, err := r.Stats(); !errors.Is(err, ErrBroken) {
			t.Fatalf("Stats on a poisoned journal = %v, want ErrBroken", err)
		}
		if err := r.ApplyBatch(ctx, batch("u:c", "carol d")); !errors.Is(err, ErrBroken) {
			t.Fatalf("ApplyBatch on a broken resolver = %v, want ErrBroken", err)
		}
		r.journal = pj.inner
		r.Abandon()
	})
}
