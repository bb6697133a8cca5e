package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"entityres/er"
)

func TestParseSchemes(t *testing.T) {
	for name, want := range map[string]er.WeightScheme{
		"cbs": er.CBS, "ECBS": er.ECBS, "js": er.JS, "EJS": er.EJS, "arcs": er.ARCS,
	} {
		got, err := parseWeight(name)
		if err != nil || got != want {
			t.Errorf("parseWeight(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := parseWeight("nope"); err == nil {
		t.Error("parseWeight accepted junk")
	}
	for name, want := range map[string]er.PruneScheme{
		"wep": er.WEP, "CEP": er.CEP, "wnp": er.WNP, "CNP": er.CNP,
	} {
		got, err := parsePrune(name)
		if err != nil || got != want {
			t.Errorf("parsePrune(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := parsePrune("nope"); err == nil {
		t.Error("parsePrune accepted junk")
	}
}

// TestWatchWithLivePruning replays an op log through the watch subcommand
// with live meta-blocking enabled.
func TestWatchWithLivePruning(t *testing.T) {
	ops := []er.StreamOp{
		{Kind: er.StreamInsert, URI: "u:a", Attrs: []er.Attribute{{Name: "name", Value: "alice smith"}}},
		{Kind: er.StreamInsert, URI: "u:b", Attrs: []er.Attribute{{Name: "name", Value: "alice smith"}}},
		{Kind: er.StreamInsert, URI: "u:c", Attrs: []er.Attribute{{Name: "name", Value: "carol jones"}}},
		{Kind: er.StreamDelete, URI: "u:c"},
	}
	var buf bytes.Buffer
	if err := er.WriteStreamOps(&buf, ops); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ops.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	watch([]string{"-ops", path, "-weight", "CBS", "-prune", "WEP", "-stats-every", "2", "-print-matches"})
	watch([]string{"-ops", path}) // no pruning path
}

func TestStatsLine(t *testing.T) {
	var st er.StreamingStats
	st.KeptPairs, st.CandidatePairs = 3, 7
	if got := statsLine(st, false); got == "" {
		t.Fatal("empty stats line")
	}
	withMeta := statsLine(st, true)
	if withMeta == "" || withMeta == statsLine(st, false) {
		t.Fatalf("meta stats line %q not extended", withMeta)
	}
}

// TestLoadHelpers covers the KB and truth loading paths.
func TestLoadHelpers(t *testing.T) {
	dir := t.TempDir()
	kb := filepath.Join(dir, "kb.nt")
	nt := `<http://x/a> <http://x/name> "alice" .` + "\n" + `<http://x/b> <http://x/name> "alice" .` + "\n"
	if err := os.WriteFile(kb, []byte(nt), 0o644); err != nil {
		t.Fatal(err)
	}
	c := er.NewCollection(er.Dirty)
	if err := load(c, kb, 0, "", ""); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("loaded %d descriptions, want 2", c.Len())
	}
	truth := filepath.Join(dir, "truth.tsv")
	if err := os.WriteFile(truth, []byte("http://x/a\thttp://x/b\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	gt, err := loadTruth(c, truth)
	if err != nil {
		t.Fatal(err)
	}
	if gt.Len() != 1 {
		t.Fatalf("loaded %d truth pairs, want 1", gt.Len())
	}
	if err := load(c, filepath.Join(dir, "missing.nt"), 0, "", ""); err == nil {
		t.Fatal("missing KB accepted")
	}
	if _, err := loadTruth(c, filepath.Join(dir, "missing.tsv")); err == nil {
		t.Fatal("missing truth accepted")
	}
}

// TestWatchWalResume replays an op log with -wal twice: the first run
// journals everything, the second recovers from the directory and skips the
// already-applied prefix — the resume-after-restart workflow.
func TestWatchWalResume(t *testing.T) {
	ops := []er.StreamOp{
		{Kind: er.StreamInsert, URI: "u:a", Attrs: []er.Attribute{{Name: "name", Value: "alice smith"}}},
		{Kind: er.StreamInsert, URI: "u:b", Attrs: []er.Attribute{{Name: "name", Value: "alice smith"}}},
		{Kind: er.StreamInsert, URI: "u:c", Attrs: []er.Attribute{{Name: "name", Value: "carol jones"}}},
		{Kind: er.StreamUpdate, URI: "u:c", Attrs: []er.Attribute{{Name: "name", Value: "alice smith"}}},
	}
	var buf bytes.Buffer
	if err := er.WriteStreamOps(&buf, ops); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opsPath := filepath.Join(dir, "ops.jsonl")
	if err := os.WriteFile(opsPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	walDir := filepath.Join(dir, "wal")
	// First run journals all 4 ops; the rerun resumes, skips them all, and
	// leaves the same final state. Runs exercise both the snapshot path
	// (cadence 2 ⇒ snapshots mid-stream) and plain tail replay.
	watch([]string{"-ops", opsPath, "-wal", walDir, "-snapshot-every", "2", "-wal-nosync", "-print-matches"})
	watch([]string{"-ops", opsPath, "-wal", walDir, "-snapshot-every", "2", "-wal-nosync", "-print-matches"})

	// The WAL directory holds the full state: reopening it directly shows
	// all four ops applied exactly once.
	r, err := er.Open(context.Background(), er.Config{
		Kind:    er.Dirty,
		Blocker: &er.TokenBlocking{},
		Matcher: &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: 0.4},
		Dir:     walDir,
		Durable: er.StreamingDurable{NoSync: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	st, err := r.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Inserts != 3 || st.Updates != 1 || st.Live != 3 {
		t.Fatalf("state after resume: %+v, want 3 inserts + 1 update applied once", st)
	}
}

// TestWatchStreamShards replays an op log through the sharded watch path —
// in-memory, then durable with a resume, exercising the coordinator and
// per-shard WAL directories and the recovery summary.
func TestWatchStreamShards(t *testing.T) {
	ops := []er.StreamOp{
		{Kind: er.StreamInsert, URI: "u:a", Attrs: []er.Attribute{{Name: "name", Value: "alice smith"}}},
		{Kind: er.StreamInsert, URI: "u:b", Attrs: []er.Attribute{{Name: "name", Value: "alice smith"}}},
		{Kind: er.StreamInsert, URI: "u:c", Attrs: []er.Attribute{{Name: "name", Value: "carol jones"}}},
		{Kind: er.StreamUpdate, URI: "u:c", Attrs: []er.Attribute{{Name: "name", Value: "alice smith"}}},
		{Kind: er.StreamDelete, URI: "u:b"},
	}
	var buf bytes.Buffer
	if err := er.WriteStreamOps(&buf, ops); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opsPath := filepath.Join(dir, "ops.jsonl")
	if err := os.WriteFile(opsPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	watch([]string{"-ops", opsPath, "-stream-shards", "3", "-stats-every", "2", "-print-matches"})
	watch([]string{"-ops", opsPath, "-stream-shards", "3", "-weight", "CBS", "-prune", "WEP"})

	walDir := filepath.Join(dir, "wal")
	watch([]string{"-ops", opsPath, "-stream-shards", "3", "-wal", walDir, "-snapshot-every", "2", "-wal-nosync"})
	// The rerun resumes from the per-shard WALs and skips the whole log.
	watch([]string{"-ops", opsPath, "-stream-shards", "3", "-wal", walDir, "-snapshot-every", "2", "-wal-nosync", "-print-matches"})

	r, err := er.Open(context.Background(), er.Config{
		Kind:    er.Dirty,
		Blocker: &er.TokenBlocking{},
		Matcher: &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: 0.4},
		Shards:  3,
		Dir:     walDir,
		Durable: er.StreamingDurable{SnapshotEvery: 2, NoSync: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i, rec := range r.(er.DurableReporter).Recovery() {
		if !rec.Recovered {
			t.Fatalf("sharded wal directory holds no recovered state in journal %d", i)
		}
	}
	st2, err := r.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st := st2; st.Inserts != 3 || st.Updates != 1 || st.Deletes != 1 || st.Live != 2 || st.Matches != 1 {
		t.Fatalf("recovered sharded stats = %+v", st)
	}
}

// TestWatchBatch replays the op log through the amortized batch path —
// chunked ApplyBatch instead of per-op application — across the
// single-node, sharded and durable forms, and asserts the WAL state a
// batched replay leaves behind is the same state the per-op replay
// produces (the chunking is invisible to the result).
func TestWatchBatch(t *testing.T) {
	ops := []er.StreamOp{
		{Kind: er.StreamInsert, URI: "u:a", Attrs: []er.Attribute{{Name: "name", Value: "alice smith"}}},
		{Kind: er.StreamInsert, URI: "u:b", Attrs: []er.Attribute{{Name: "name", Value: "alice smith"}}},
		{Kind: er.StreamInsert, URI: "u:c", Attrs: []er.Attribute{{Name: "name", Value: "carol jones"}}},
		{Kind: er.StreamUpdate, URI: "u:c", Attrs: []er.Attribute{{Name: "name", Value: "alice smith"}}},
		{Kind: er.StreamDelete, URI: "u:b"},
	}
	var buf bytes.Buffer
	if err := er.WriteStreamOps(&buf, ops); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opsPath := filepath.Join(dir, "ops.jsonl")
	if err := os.WriteFile(opsPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	watch([]string{"-ops", opsPath, "-batch", "2", "-stats-every", "2", "-print-matches"})
	// A chunk larger than the log is one whole-log batch; sharded replay
	// fans each chunk out once.
	watch([]string{"-ops", opsPath, "-batch", "64", "-stream-shards", "2"})

	walDir := filepath.Join(dir, "wal")
	watch([]string{"-ops", opsPath, "-batch", "3", "-wal", walDir, "-snapshot-every", "2", "-wal-nosync"})
	// The rerun resumes from the WAL and skips the already-applied log.
	watch([]string{"-ops", opsPath, "-batch", "3", "-wal", walDir, "-snapshot-every", "2", "-wal-nosync"})

	r, err := er.Open(context.Background(), er.Config{
		Kind:    er.Dirty,
		Blocker: &er.TokenBlocking{},
		Matcher: &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: 0.4},
		Dir:     walDir,
		Durable: er.StreamingDurable{SnapshotEvery: 2, NoSync: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	st, err := r.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Inserts != 3 || st.Updates != 1 || st.Deletes != 1 || st.Live != 2 || st.Matches != 1 {
		t.Fatalf("batched replay left recovered stats %+v", st)
	}
}

// TestApplyStreamOp covers how the log replay applies one op — a batch of
// one through the v2 interface — including the refused paths: mutating a
// URI that was never inserted, and an op kind the log format does not
// define.
func TestApplyStreamOp(t *testing.T) {
	ctx := context.Background()
	r, err := er.Open(ctx, er.Config{
		Kind:    er.Dirty,
		Blocker: &er.TokenBlocking{},
		Matcher: &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: 0.4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	attrs := []er.Attribute{{Name: "name", Value: "alice"}}
	applyStreamOp := func(ctx context.Context, r er.Resolver, op er.StreamOp) error {
		return r.ApplyBatch(ctx, []er.StreamOp{op})
	}
	if err := applyStreamOp(ctx, r, er.StreamOp{Kind: er.StreamInsert, URI: "u:a", Attrs: attrs}); err != nil {
		t.Fatal(err)
	}
	if err := applyStreamOp(ctx, r, er.StreamOp{Kind: er.StreamUpdate, URI: "u:a", Attrs: attrs}); err != nil {
		t.Fatal(err)
	}
	if err := applyStreamOp(ctx, r, er.StreamOp{Kind: er.StreamUpdate, URI: "u:ghost", Attrs: attrs}); err == nil {
		t.Fatal("update of a never-inserted URI accepted")
	}
	if err := applyStreamOp(ctx, r, er.StreamOp{Kind: er.StreamDelete, URI: "u:ghost"}); err == nil {
		t.Fatal("delete of a never-inserted URI accepted")
	}
	if err := applyStreamOp(ctx, r, er.StreamOp{Kind: er.StreamOpKind(99), URI: "u:a"}); err == nil {
		t.Fatal("unknown op kind accepted")
	}
	if err := applyStreamOp(ctx, r, er.StreamOp{Kind: er.StreamDelete, URI: "u:a"}); err != nil {
		t.Fatal(err)
	}
}

// TestLoadTabular loads a CSV KB with a custom ID column through the
// format-inferring loader, plus an explicit-format override.
func TestLoadTabular(t *testing.T) {
	dir := t.TempDir()
	kb := filepath.Join(dir, "kb.csv")
	csv := "key,name\nu:a,alice smith\nu:b,alice smith\n"
	if err := os.WriteFile(kb, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	c := er.NewCollection(er.Dirty)
	if err := load(c, kb, 0, "", "key"); err != nil {
		t.Fatal(err)
	}
	name, _ := c.Get(0).Value("name")
	if c.Len() != 2 || c.Get(0).URI != "u:a" || name != "alice smith" {
		t.Fatalf("csv load: %d records, first %+v", c.Len(), c.Get(0))
	}
	// The same file parses as CSV under an explicit format despite a
	// misleading extension.
	odd := filepath.Join(dir, "kb.dat")
	if err := os.WriteFile(odd, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	c2 := er.NewCollection(er.Dirty)
	if err := load(c2, odd, 0, "CSV", "key"); err != nil {
		t.Fatal(err)
	}
	if c2.Len() != 2 {
		t.Fatalf("explicit-format load: %d records", c2.Len())
	}
}

// TestExportSourceMatches writes the per-source interlinking exports for a
// small clean-clean result and pins their contents.
func TestExportSourceMatches(t *testing.T) {
	c := er.NewCollection(er.CleanClean)
	a := c.MustAdd(er.NewDescription("u:a").Add("name", "alice"))
	b := c.MustAdd(func() *er.Description {
		d := er.NewDescription("u:b").Add("name", "alice")
		d.Source = 1
		return d
	}())
	m := er.NewMatches()
	m.Add(a, b)
	dir := filepath.Join(t.TempDir(), "exports")
	if err := exportSourceMatches(dir, c, m); err != nil {
		t.Fatal(err)
	}
	got0, err := os.ReadFile(filepath.Join(dir, "matches.source0.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	got1, err := os.ReadFile(filepath.Join(dir, "matches.source1.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got0) != "u:a\tu:b\n" || string(got1) != "u:b\tu:a\n" {
		t.Fatalf("exports = %q / %q", got0, got1)
	}
}

// TestWatchWithSources preloads a CSV source ahead of the ops log and
// resumes the combined stream from the WAL: the source records are the
// stream's fixed prefix, so the restart must skip them plus the applied
// ops — nothing is ingested twice.
func TestWatchWithSources(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "kb0.csv")
	if err := os.WriteFile(src, []byte("id,name\nu:a,alice smith\nu:b,alice smith\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ops := []er.StreamOp{
		{Kind: er.StreamInsert, URI: "u:c", Attrs: []er.Attribute{{Name: "name", Value: "carol jones"}}},
		{Kind: er.StreamUpdate, URI: "u:c", Attrs: []er.Attribute{{Name: "name", Value: "alice smith"}}},
	}
	var buf bytes.Buffer
	if err := er.WriteStreamOps(&buf, ops); err != nil {
		t.Fatal(err)
	}
	opsPath := filepath.Join(dir, "ops.jsonl")
	if err := os.WriteFile(opsPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	walDir := filepath.Join(dir, "wal")
	args := []string{"-ops", opsPath, "-src0", src, "-wal", walDir, "-wal-nosync", "-print-matches"}
	watch(args)
	watch(args) // resume: skips the 2 source records and both ops

	r, err := er.Open(context.Background(), er.Config{
		Kind:    er.Dirty,
		Blocker: &er.TokenBlocking{},
		Matcher: &er.Matcher{Sim: &er.TokenJaccard{}, Threshold: 0.4},
		Dir:     walDir,
		Durable: er.StreamingDurable{NoSync: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	st, err := r.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Inserts != 3 || st.Updates != 1 || st.Live != 3 || st.Matches != 3 {
		t.Fatalf("state after sourced resume: %+v, want 2 source records + 1 insert + 1 update applied once", st)
	}
}
