package core

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"entityres/internal/blocking"
	"entityres/internal/blockproc"
	"entityres/internal/entity"
	"entityres/internal/incremental"
	"entityres/internal/matching"
	"entityres/internal/metablocking"
	"entityres/internal/sharded"
	"entityres/internal/transport"
)

// TestPipelineStreamingEqualsBatch is the mode-level differential contract:
// replaying a static collection through Streaming mode produces exactly the
// Batch result — same matches, same clusters, same distinct comparison
// count, same block collection.
func TestPipelineStreamingEqualsBatch(t *testing.T) {
	c, _ := testData(t)
	m := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
	batch := &Pipeline{Blocker: &blocking.TokenBlocking{}, Matcher: m, Mode: Batch}
	stream := &Pipeline{Blocker: &blocking.TokenBlocking{}, Matcher: m, Mode: Streaming}

	want, err := batch.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := stream.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	sorted := func(r *Result) []string {
		var out []string
		for _, p := range r.Matches.Pairs() {
			out = append(out, fmt.Sprintf("%d-%d", p.A, p.B))
		}
		sort.Strings(out)
		return out
	}
	if !reflect.DeepEqual(sorted(got), sorted(want)) {
		t.Fatalf("streaming matches diverge from batch:\nstreaming %v\nbatch     %v", sorted(got), sorted(want))
	}
	if got.Comparisons != want.Comparisons {
		t.Fatalf("streaming comparisons = %d, batch = %d", got.Comparisons, want.Comparisons)
	}
	if !reflect.DeepEqual(got.Clusters(), want.Clusters()) {
		t.Fatalf("streaming clusters diverge from batch")
	}
	if got.Blocks.Len() != want.Blocks.Len() {
		t.Fatalf("streaming blocks = %d, batch = %d", got.Blocks.Len(), want.Blocks.Len())
	}
	if len(got.Phases) != 1 || got.Phases[0].Name != "streaming" {
		t.Fatalf("phases = %v", got.Phases)
	}
}

// TestPipelineStreamingMetaEqualsBatch is the incremental meta-blocking
// contract: replaying a static collection through Streaming mode with a
// stream-safe MetaBlocker reproduces the Batch result bit for bit — same
// matches, same clusters, same comparison count (the number of pruned-graph
// survivors), and the same restructured block collection in the same
// weight order.
func TestPipelineStreamingMetaEqualsBatch(t *testing.T) {
	c, _ := testData(t)
	m := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
	renderBlocks := func(bs *blocking.Blocks) []string {
		out := make([]string, 0, bs.Len())
		for _, b := range bs.All() {
			out = append(out, fmt.Sprintf("%s S0=%v S1=%v", b.Key, b.S0, b.S1))
		}
		return out
	}
	for _, w := range []metablocking.WeightScheme{metablocking.CBS, metablocking.ECBS, metablocking.JS} {
		for _, pr := range []metablocking.PruneScheme{metablocking.WEP, metablocking.WNP} {
			for _, rec := range []bool{false, true} {
				if rec && pr != metablocking.WNP {
					continue
				}
				meta := &metablocking.MetaBlocker{Weight: w, Prune: pr, Reciprocal: rec}
				t.Run(meta.Name(), func(t *testing.T) {
					batch := &Pipeline{Blocker: &blocking.TokenBlocking{}, Meta: meta, Matcher: m, Mode: Batch}
					stream := &Pipeline{Blocker: &blocking.TokenBlocking{}, Meta: meta, Matcher: m, Mode: Streaming}
					want, err := batch.Run(c)
					if err != nil {
						t.Fatal(err)
					}
					got, err := stream.Run(c)
					if err != nil {
						t.Fatal(err)
					}
					if got.Comparisons != want.Comparisons {
						t.Errorf("streaming comparisons = %d, batch = %d", got.Comparisons, want.Comparisons)
					}
					if gm, wm := sortedPairs(got.Matches), sortedPairs(want.Matches); !reflect.DeepEqual(gm, wm) {
						t.Errorf("streaming matches diverge from batch:\nstreaming %v\nbatch     %v", gm, wm)
					}
					if !reflect.DeepEqual(got.Clusters(), want.Clusters()) {
						t.Errorf("streaming clusters diverge from batch")
					}
					if gb, wb := renderBlocks(got.Blocks), renderBlocks(want.Blocks); !reflect.DeepEqual(gb, wb) {
						t.Errorf("streaming restructured blocks diverge from batch:\nstreaming %v\nbatch     %v", gb, wb)
					}
					// The batch run compared exactly the pruned-graph
					// survivors; a comparison saved is one the exhaustive
					// blocked run would have made.
					if want.Comparisons <= 0 {
						t.Fatalf("batch meta run made no comparisons")
					}
				})
			}
		}
	}
}

// sortedPairs renders a match set deterministically.
func sortedPairs(m *entity.Matches) []string {
	var out []string
	for _, p := range m.Pairs() {
		out = append(out, fmt.Sprintf("%d-%d", p.A, p.B))
	}
	sort.Strings(out)
	return out
}

// TestStreamingValidation checks the configurations streaming rejects —
// and that each batch-only meta-blocking scheme is refused with its
// specific reason, not a blanket error.
func TestStreamingValidation(t *testing.T) {
	c, _ := testData(t)
	m := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
	cases := map[string]struct {
		p    *Pipeline
		want string // substring the error must carry
	}{
		"collection-dependent blocker": {
			p:    &Pipeline{Blocker: &blocking.AttributeClustering{}, Matcher: m, Mode: Streaming},
			want: "StreamableBlocker",
		},
		"refining blocker": {
			p:    &Pipeline{Blocker: &blocking.SuffixArrayBlocking{}, Matcher: m, Mode: Streaming},
			want: "StreamableBlocker",
		},
		"block cleaning": {
			p: &Pipeline{
				Blocker:    &blocking.TokenBlocking{},
				Processors: []blockproc.Processor{&blockproc.SizePurge{}},
				Matcher:    m, Mode: Streaming,
			},
			want: "block cleaning",
		},
		"EJS weighting": {
			p: &Pipeline{
				Blocker: &blocking.TokenBlocking{},
				Meta:    &metablocking.MetaBlocker{Weight: metablocking.EJS, Prune: metablocking.WEP},
				Matcher: m, Mode: Streaming,
			},
			want: "EJS weighting cannot stream",
		},
		"ARCS weighting": {
			p: &Pipeline{
				Blocker: &blocking.TokenBlocking{},
				Meta:    &metablocking.MetaBlocker{Weight: metablocking.ARCS, Prune: metablocking.WNP},
				Matcher: m, Mode: Streaming,
			},
			want: "ARCS weighting cannot stream",
		},
		"CEP pruning": {
			p: &Pipeline{
				Blocker: &blocking.TokenBlocking{},
				Meta:    &metablocking.MetaBlocker{Weight: metablocking.CBS, Prune: metablocking.CEP},
				Matcher: m, Mode: Streaming,
			},
			want: "CEP pruning cannot stream",
		},
		"CNP pruning": {
			p: &Pipeline{
				Blocker: &blocking.TokenBlocking{},
				Meta:    &metablocking.MetaBlocker{Weight: metablocking.JS, Prune: metablocking.CNP},
				Matcher: m, Mode: Streaming,
			},
			want: "CNP pruning cannot stream",
		},
	}
	for name, tc := range cases {
		_, err := tc.p.Run(c)
		if err == nil {
			t.Errorf("%s: accepted by streaming mode", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not carry %q", name, err, tc.want)
		}
	}
	// The stream-safe subset is accepted: every WEP/WNP × CBS/ECBS/JS
	// combination runs (Reciprocal included).
	for _, w := range []metablocking.WeightScheme{metablocking.CBS, metablocking.ECBS, metablocking.JS} {
		for _, pr := range []metablocking.PruneScheme{metablocking.WEP, metablocking.WNP} {
			p := &Pipeline{
				Blocker: &blocking.TokenBlocking{},
				Meta:    &metablocking.MetaBlocker{Weight: w, Prune: pr, Reciprocal: pr == metablocking.WNP},
				Matcher: m, Mode: Streaming,
			}
			if _, err := p.Run(c); err != nil {
				t.Errorf("meta(%s,%s) rejected by streaming mode: %v", w, pr, err)
			}
		}
	}
}

// TestStreamingSetupErrors covers the construction error path of
// openStream, which Run's validation otherwise shields.
func TestStreamingSetupErrors(t *testing.T) {
	m := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
	p := &Pipeline{Blocker: &blocking.AttributeClustering{}, Matcher: m}
	if _, err := p.openStream(context.Background(), 0, 1); err == nil {
		t.Fatal("openStream accepted a collection-dependent blocker")
	}
}

// TestStreamingDuplicateURIs: streams address descriptions by URI, so a
// collection carrying the same URI twice cannot replay.
func TestStreamingDuplicateURIs(t *testing.T) {
	c := entity.NewCollection(entity.Dirty)
	for i := 0; i < 2; i++ {
		d := entity.NewDescription("http://dup.example.org/x")
		d.Add("name", "alice smith")
		c.MustAdd(d)
	}
	p := &Pipeline{
		Blocker: &blocking.TokenBlocking{},
		Matcher: &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5},
		Mode:    Streaming,
	}
	if _, err := p.Run(c); err == nil {
		t.Fatal("streaming replay accepted duplicate URIs")
	}
}

func TestStreamingModeString(t *testing.T) {
	if Streaming.String() != "streaming" {
		t.Fatalf("Streaming.String() = %q", Streaming.String())
	}
}

// TestPipelineStreamingPersistence: a Streaming pipeline with StreamDir set
// journals its replay into a WAL directory and produces exactly the
// in-memory streaming (= batch) result; reopening the directory afterwards
// recovers the replayed state.
func TestPipelineStreamingPersistence(t *testing.T) {
	c, _ := testData(t)
	m := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
	dir := t.TempDir()
	mem := &Pipeline{Blocker: &blocking.TokenBlocking{}, Matcher: m, Mode: Streaming}
	dur := &Pipeline{Blocker: &blocking.TokenBlocking{}, Matcher: m, Mode: Streaming,
		StreamDir: dir, StreamDurable: incremental.DurableOptions{NoSync: true, SnapshotEvery: 8}}

	want, err := mem.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dur.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if want.Matches.Len() != got.Matches.Len() || want.Comparisons != got.Comparisons {
		t.Fatalf("durable streaming run diverges: %d/%d matches, %d/%d comparisons",
			got.Matches.Len(), want.Matches.Len(), got.Comparisons, want.Comparisons)
	}
	// The directory now holds the whole replay: reopening it recovers the
	// resolved state without the collection.
	r, err := incremental.OpenResolver(dir, incremental.Config{
		Kind: c.Kind(), Blocker: &blocking.TokenBlocking{}, Matcher: m,
		Durable: incremental.DurableOptions{NoSync: true, SnapshotEvery: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.Recovery().Recovered {
		t.Fatal("StreamDir left no recoverable state")
	}
	st, err := r.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Live != c.Len() || st.Matches != want.Matches.Len() || st.Comparisons != want.Comparisons {
		t.Fatalf("recovered state %+v diverges from the pipeline result (%d matches, %d comparisons)",
			st, want.Matches.Len(), want.Comparisons)
	}
	// A second durable run into the same directory collides with the live
	// URIs and fails instead of corrupting state.
	if _, err := dur.Run(c); err == nil {
		t.Fatal("re-running a persistent pipeline into a populated directory succeeded")
	}
}

// TestPipelineStreamDirValidation: durable streaming is a Streaming-mode
// option; every other mode rejects it.
func TestPipelineStreamDirValidation(t *testing.T) {
	m := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
	p := &Pipeline{Blocker: &blocking.TokenBlocking{}, Matcher: m, Mode: Batch, StreamDir: t.TempDir()}
	if err := p.Validate(); err == nil {
		t.Fatal("StreamDir accepted outside Streaming mode")
	}
	p.Mode = Streaming
	if err := p.Validate(); err != nil {
		t.Fatalf("StreamDir rejected in Streaming mode: %v", err)
	}
	// Durability tuning without a StreamDir would be silently ignored;
	// Validate refuses it instead.
	p.StreamDir = ""
	p.StreamDurable = incremental.DurableOptions{NoSync: true}
	if err := p.Validate(); err == nil {
		t.Fatal("StreamDurable accepted without StreamDir")
	}
}

// TestPipelineStreamShards: Streaming mode with StreamShards > 1 replays
// the collection through the sharded resolver and reproduces the batch —
// and therefore the single-node streaming — result bit for bit: matches,
// clusters, comparison count and blocks, for several shard counts, with
// and without live meta-blocking.
func TestPipelineStreamShards(t *testing.T) {
	c, _ := testData(t)
	m := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
	for _, meta := range []*metablocking.MetaBlocker{
		nil,
		{Weight: metablocking.CBS, Prune: metablocking.WEP},
	} {
		batch := &Pipeline{Blocker: &blocking.TokenBlocking{}, Meta: meta, Matcher: m, Mode: Batch}
		want, err := batch.Run(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{2, 5} {
			name := fmt.Sprintf("shards=%d", n)
			if meta != nil {
				name += "/" + meta.Name()
			}
			t.Run(name, func(t *testing.T) {
				stream := &Pipeline{Blocker: &blocking.TokenBlocking{}, Meta: meta, Matcher: m, Mode: Streaming, StreamShards: n}
				got, err := stream.Run(c)
				if err != nil {
					t.Fatal(err)
				}
				if gm, wm := sortedPairs(got.Matches), sortedPairs(want.Matches); !reflect.DeepEqual(gm, wm) {
					t.Errorf("sharded streaming matches diverge from batch:\nsharded %v\nbatch   %v", gm, wm)
				}
				if got.Comparisons != want.Comparisons {
					t.Errorf("sharded streaming comparisons = %d, batch = %d", got.Comparisons, want.Comparisons)
				}
				if !reflect.DeepEqual(got.Clusters(), want.Clusters()) {
					t.Errorf("sharded streaming clusters diverge from batch")
				}
				if got.Blocks.Len() != want.Blocks.Len() {
					t.Errorf("sharded streaming blocks = %d, batch = %d", got.Blocks.Len(), want.Blocks.Len())
				}
			})
		}
	}
}

// TestPipelineStreamShardsDurable: StreamShards + StreamDir journals the
// coordinator under coordinator/ and each shard under shard-%03d, and the
// directory recovers through transport.OpenLocal.
func TestPipelineStreamShardsDurable(t *testing.T) {
	c, _ := testData(t)
	m := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
	dir := t.TempDir()
	p := &Pipeline{Blocker: &blocking.TokenBlocking{}, Matcher: m, Mode: Streaming,
		StreamShards: 3, StreamDir: dir,
		StreamDurable: incremental.DurableOptions{NoSync: true, SnapshotEvery: 8}}
	want, err := p.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	r, err := transport.OpenLocal(context.Background(), dir, sharded.Config{
		Kind: c.Kind(), Blocker: &blocking.TokenBlocking{}, Matcher: m, Shards: 3,
		Durable: incremental.DurableOptions{NoSync: true, SnapshotEvery: 8},
	}, transport.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i, rec := range r.Recovery() {
		if !rec.Recovered {
			t.Fatalf("StreamDir left no recoverable state in journal %d", i)
		}
	}
	st, err := r.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Live != c.Len() || st.Matches != want.Matches.Len() || st.Comparisons != want.Comparisons {
		t.Fatalf("recovered sharded state %+v diverges from the pipeline result (%d matches, %d comparisons)",
			st, want.Matches.Len(), want.Comparisons)
	}
}

// TestPipelineStreamShardsValidation: sharded streaming is a
// Streaming-mode option with a sane shard count.
func TestPipelineStreamShardsValidation(t *testing.T) {
	m := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
	p := &Pipeline{Blocker: &blocking.TokenBlocking{}, Matcher: m, Mode: Batch, StreamShards: 4}
	if err := p.Validate(); err == nil {
		t.Fatal("StreamShards accepted outside Streaming mode")
	}
	p.Mode = Streaming
	if err := p.Validate(); err != nil {
		t.Fatalf("StreamShards rejected in Streaming mode: %v", err)
	}
	p.StreamShards = -1
	if err := p.Validate(); err == nil {
		t.Fatal("negative StreamShards accepted")
	}
	// StreamShards <= 1 is the single-node resolver in any mode's terms:
	// valid in Batch too, since it changes nothing.
	p.Mode, p.StreamShards = Batch, 1
	if err := p.Validate(); err != nil {
		t.Fatalf("StreamShards=1 rejected: %v", err)
	}
}
