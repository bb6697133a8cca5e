package incremental_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"entityres/internal/blocking"
	"entityres/internal/entity"
	"entityres/internal/graph"
	"entityres/internal/incremental"
	"entityres/internal/matching"
	"entityres/internal/metablocking"
	"entityres/internal/sharded"
)

// The routed-frame property: a shard that applies the routed stream in
// frames — one ApplyRouted call, one journal record per frame, insert runs
// resolved in one pass — reaches exactly the state of applying the same
// records as frames of one: matches, counters, stream position, match
// edges and every handle's neighbours; and the per-record neighbour lists
// a frame acknowledges, folded the way the networked coordinator folds
// them, rebuild exactly the single-node match graph.

// routeScript splits a URI-addressed op script into each shard's routed
// stream the way the networked coordinator routes it: an operation travels
// in full to the shards owning one of its keys (an update's old and new
// keys, a delete's old ones) and as a slot-advance everywhere else.
func routeScript(blocker blocking.StreamableBlocker, shards int, script []incremental.Op) [][]incremental.RoutedOp {
	keyer := blocker.StreamKeyer()
	owners := func(ds ...*entity.Description) []bool {
		own := make([]bool, shards)
		for _, d := range ds {
			for _, k := range blocking.DistinctKeys(keyer(d)) {
				own[sharded.KeyOwner(k, shards)] = true
			}
		}
		return own
	}
	byURI := map[string]entity.ID{}
	var descs []*entity.Description
	out := make([][]incremental.RoutedOp, shards)
	for i, op := range script {
		full := incremental.RoutedOp{Seq: uint64(i + 1), Kind: op.Kind}
		var own []bool
		switch op.Kind {
		case incremental.OpInsert:
			full.ID = entity.ID(len(descs))
			d := &entity.Description{ID: full.ID, URI: op.URI, Source: op.Source, Attrs: op.Attrs}
			descs = append(descs, d)
			byURI[op.URI] = full.ID
			full.URI, full.Source, full.Attrs = op.URI, op.Source, op.Attrs
			own = owners(d)
		case incremental.OpUpdate:
			full.ID = byURI[op.URI]
			old := descs[full.ID]
			next := &entity.Description{ID: full.ID, URI: old.URI, Source: old.Source, Attrs: op.Attrs}
			full.URI, full.Source, full.Attrs = old.URI, old.Source, op.Attrs
			own = owners(old, next)
			descs[full.ID] = next
		default:
			full.ID = byURI[op.URI]
			own = owners(descs[full.ID])
			delete(byURI, op.URI)
		}
		for j := range shards {
			if own[j] {
				out[j] = append(out[j], full)
			} else {
				out[j] = append(out[j], incremental.RoutedOp{Seq: full.Seq, Kind: full.Kind, Advance: true, ID: full.ID})
			}
		}
	}
	return out
}

// foldAcks folds one frame's acknowledgements into g the way the networked
// coordinator does: in record order, an update or delete retires the
// handle's edges, then every shard's list re-adds the record's matches.
func foldAcks(g *graph.Dynamic, frame []incremental.RoutedOp, acks [][][]entity.ID) {
	for i, op := range frame {
		if op.Kind != incremental.OpInsert {
			g.RemoveNode(op.ID)
		}
		if op.Kind == incremental.OpDelete {
			continue
		}
		for _, ack := range acks {
			for _, nb := range ack[i] {
				g.AddEdge(op.ID, nb, 1)
			}
		}
	}
}

// applyAcked applies frame to r and returns its neighbour lists (nil under
// meta-blocking, where a shard sends none).
func applyAcked(t *testing.T, r *incremental.Resolver, frame []incremental.RoutedOp, meta bool) [][]entity.ID {
	t.Helper()
	var nbrs [][]entity.ID
	if !meta {
		nbrs = make([][]entity.ID, len(frame))
	}
	if err := r.ApplyRouted(context.Background(), frame, nbrs); err != nil {
		t.Fatalf("frame %d..%d: %v", frame[0].Seq, frame[len(frame)-1].Seq, err)
	}
	return nbrs
}

// assertSameShard compares two shard resolvers on everything a frame must
// not change: state, stream position, raw edges and every neighbour list.
func assertSameShard(t *testing.T, got, want *incremental.Resolver) {
	t.Helper()
	assertSameResolverState(t, got, want)
	if g, w := got.LastSeq(), want.LastSeq(); g != w {
		t.Fatalf("LastSeq %d, want %d", g, w)
	}
	if g, w := fmt.Sprint(got.MatchEdges()), fmt.Sprint(want.MatchEdges()); g != w {
		t.Fatalf("match edges diverge:\ngot  %s\nwant %s", g, w)
	}
	for id := range want.Slots() {
		if g, w := got.MatchNeighbors(id), want.MatchNeighbors(id); !slices.Equal(g, w) {
			t.Fatalf("MatchNeighbors(%d) = %v, want %v", id, g, w)
		}
	}
}

type routedFrameScenario struct {
	name   string
	kind   entity.Kind
	shards int
	meta   *metablocking.MetaBlocker
	seed   int64
}

// TestRoutedFrameDifferential routes op scripts to every shard of a
// deployment and applies each shard's stream twice: in random frames on a
// durable resolver — with straddling and full redeliveries and refused
// frames mixed in — and as frames of one in memory.
func TestRoutedFrameDifferential(t *testing.T) {
	for _, sc := range []routedFrameScenario{
		{name: "dirty/n1", kind: entity.Dirty, shards: 1, seed: 71},
		{name: "dirty/n2", kind: entity.Dirty, shards: 2, seed: 72},
		{name: "dirty/n3", kind: entity.Dirty, shards: 3, seed: 73},
		{name: "cleanclean/n2", kind: entity.CleanClean, shards: 2, seed: 74},
		{name: "dirty/n2/meta", kind: entity.Dirty, shards: 2, seed: 75,
			meta: &metablocking.MetaBlocker{Weight: metablocking.CBS, Prune: metablocking.WEP}},
	} {
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			runRoutedFrameScenario(t, sc)
		})
	}
}

func runRoutedFrameScenario(t *testing.T, sc routedFrameScenario) {
	ctx := context.Background()
	const ops = 240
	matcher := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
	blocker := &blocking.TokenBlocking{}
	script := generateScript(t, sc.kind, sc.seed, ops, opMixes[1])
	streams := routeScript(blocker, sc.shards, script)
	cfg := sharded.Config{Kind: sc.kind, Blocker: blocker, Matcher: matcher, Workers: 2, Meta: sc.meta, Shards: sc.shards}
	durable := cfg
	durable.Durable = incremental.DurableOptions{SnapshotEvery: 7, NoSync: true}
	meta := sc.meta != nil

	framed := make([]*incremental.Resolver, sc.shards)
	single := make([]*incremental.Resolver, sc.shards)
	dirs := make([]string, sc.shards)
	for j := range sc.shards {
		dirs[j] = t.TempDir()
		var err error
		if framed[j], err = incremental.OpenResolver(dirs[j], durable.NodeConfig(j)); err != nil {
			t.Fatal(err)
		}
		if single[j], err = incremental.New(cfg.NodeConfig(j)); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := incremental.New(incremental.Config{Kind: sc.kind, Blocker: blocker, Matcher: matcher, Workers: 2, Meta: sc.meta})
	if err != nil {
		t.Fatal(err)
	}
	framedFold, singleFold := graph.NewDynamic(), graph.NewDynamic()
	rng := rand.New(rand.NewSource(sc.seed))
	for at, step := 0, 0; at < ops; step++ {
		end := min(at+1+rng.Intn(16), ops)
		acks := make([][][]entity.ID, sc.shards)
		for j := range sc.shards {
			frame := streams[j][at:end]
			appends := framed[j].Perf().JournalAppends
			// A refused frame changes nothing: not the stream position, the
			// counters, nor the journal.
			if step%3 == 0 {
				pos, counters := framed[j].LastSeq(), framed[j].Counters()
				gapped := slices.Clone(frame)
				for i := range gapped {
					gapped[i].Seq++
				}
				invalid := slices.Clone(frame)
				invalid[len(invalid)-1].ID = 1 << 20
				for _, bad := range [][]incremental.RoutedOp{gapped, invalid} {
					if err := framed[j].ApplyRouted(ctx, bad, nil); err == nil {
						t.Fatalf("shard %d: refusable frame %d..%d accepted", j, bad[0].Seq, bad[len(bad)-1].Seq)
					}
				}
				if framed[j].LastSeq() != pos || framed[j].Counters() != counters || framed[j].Perf().JournalAppends != appends {
					t.Fatalf("shard %d: a refused frame moved state or journaled", j)
				}
			}
			switch {
			case step%4 == 1 && len(frame) > 1:
				// The frame's first half lands but its ack is lost; the
				// redelivered whole frame straddles LastSeq.
				applyAcked(t, framed[j], frame[:len(frame)/2], meta)
				acks[j] = applyAcked(t, framed[j], frame, meta)
				appends++
			case step%4 == 2 && at > 0:
				// The previous frame's tail rides along with this one.
				if nbrs := applyAcked(t, framed[j], streams[j][at-1:end], meta); nbrs != nil {
					acks[j] = nbrs[1:]
				}
			default:
				acks[j] = applyAcked(t, framed[j], frame, meta)
			}
			if got := framed[j].Perf().JournalAppends; got != appends+1 {
				t.Fatalf("shard %d: frame %d..%d took %d journal appends, want 1", j, frame[0].Seq, frame[len(frame)-1].Seq, got-appends)
			}
			// A fully re-acknowledged frame journals nothing.
			applyAcked(t, framed[j], frame, meta)
			if got := framed[j].Perf().JournalAppends; got != appends+1 {
				t.Fatalf("shard %d: a re-acknowledged frame journaled", j)
			}
		}
		if !meta {
			foldAcks(framedFold, streams[0][at:end], acks)
		}
		for i := at; i < end; i++ {
			one := make([][][]entity.ID, sc.shards)
			for j := range sc.shards {
				one[j] = applyAcked(t, single[j], streams[j][i:i+1], meta)
			}
			if !meta {
				foldAcks(singleFold, streams[0][i:i+1], one)
			}
			if err := ref.Apply(ctx, script[i]); err != nil {
				t.Fatal(err)
			}
		}
		for j := range sc.shards {
			if g, w := framed[j].Counters(), single[j].Counters(); g != w || framed[j].LastSeq() != uint64(end) {
				t.Fatalf("after op %d shard %d: counters %+v at seq %d, want %+v at %d", end, j, g, framed[j].LastSeq(), w, end)
			}
		}
		at = end
	}
	for j := range sc.shards {
		assertSameShard(t, framed[j], single[j])
		if err := framed[j].Close(); err != nil {
			t.Fatal(err)
		}
		// Recovery replays the journaled frames through the same splitter.
		re, err := incremental.OpenResolver(dirs[j], durable.NodeConfig(j))
		if err != nil {
			t.Fatalf("reopening shard %d: %v", j, err)
		}
		assertSameShard(t, re, single[j])
		re.Close()
	}
	if meta {
		return
	}
	want := renderState(mustMatches(t, ref))
	for name, g := range map[string]*graph.Dynamic{"frames": framedFold, "frames of one": singleFold} {
		if got := renderState(g.Matches()); got != want {
			t.Fatalf("coordinator fold of %s diverges from the single-node resolver:\ngot  %s\nwant %s", name, got, want)
		}
	}
}

// legacyRoutedOps is the routed stream testdata/routed-per-op-v1 holds,
// journaled one record per operation by a release whose ApplyRouted took
// single operations: full and slot-advance inserts, a materializing
// update, advance and full updates, an advance delete freeing u:d and its
// re-insert, and full deletes of a placeholder (5) and a dead slot (3).
func legacyRoutedOps() []incremental.RoutedOp {
	op := func(seq uint64, kind incremental.OpKind, id entity.ID, uri, name string) incremental.RoutedOp {
		o := incremental.RoutedOp{Seq: seq, Kind: kind, ID: id, URI: uri}
		if name != "" {
			o.Attrs = []entity.Attribute{{Name: "name", Value: name}}
		}
		return o
	}
	adv := func(seq uint64, kind incremental.OpKind, id entity.ID) incremental.RoutedOp {
		return incremental.RoutedOp{Seq: seq, Kind: kind, Advance: true, ID: id}
	}
	return []incremental.RoutedOp{
		op(1, incremental.OpInsert, 0, "u:a", "alice smith"),
		op(2, incremental.OpInsert, 1, "u:b", "alice smith"),
		adv(3, incremental.OpInsert, 2),
		op(4, incremental.OpInsert, 3, "u:d", "bob jones"),
		op(5, incremental.OpUpdate, 2, "u:c", "alice smith"),
		adv(6, incremental.OpUpdate, 0),
		op(7, incremental.OpUpdate, 1, "u:b", "bob jones smith"),
		adv(8, incremental.OpDelete, 3),
		op(9, incremental.OpInsert, 4, "u:d", "bob jones"),
		adv(10, incremental.OpInsert, 5),
		op(11, incremental.OpDelete, 5, "", ""),
		op(12, incremental.OpDelete, 3, "", ""),
		op(13, incremental.OpInsert, 6, "u:e", "alice smith"),
		op(14, incremental.OpUpdate, 6, "u:e", "alice jones"),
	}
}

func legacyRoutedConfig() incremental.Config {
	return incremental.Config{
		Kind:    entity.Dirty,
		Blocker: &blocking.TokenBlocking{},
		Matcher: &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5},
		Durable: incremental.DurableOptions{SnapshotEvery: 8, NoSync: true},
	}
}

// TestRoutedFrameShapes applies every routed form in ONE frame — advance
// inserts splitting runs, a materializing update, deletes of a placeholder
// and a dead slot, a URI freed and bound again — against frames of one,
// neighbour folds included; binding a URI that is still live refuses the
// frame.
func TestRoutedFrameShapes(t *testing.T) {
	stream := legacyRoutedOps()
	whole, err := incremental.New(legacyRoutedConfig())
	if err != nil {
		t.Fatal(err)
	}
	one, err := incremental.New(legacyRoutedConfig())
	if err != nil {
		t.Fatal(err)
	}
	wholeFold, oneFold := graph.NewDynamic(), graph.NewDynamic()
	foldAcks(wholeFold, stream, [][][]entity.ID{applyAcked(t, whole, stream, false)})
	for i := range stream {
		foldAcks(oneFold, stream[i:i+1], [][][]entity.ID{applyAcked(t, one, stream[i:i+1], false)})
	}
	assertSameShard(t, whole, one)
	for _, g := range []*graph.Dynamic{wholeFold, oneFold} {
		if got, want := fmt.Sprint(g.SnapshotEdges()), fmt.Sprint(whole.MatchEdges()); got != want {
			t.Fatalf("folded edges %s, want %s", got, want)
		}
	}
	if got := whole.Perf().JournalAppends; got != 1 {
		t.Fatalf("one frame took %d journal appends", got)
	}
	// u:e is live at 6: a frame binding it elsewhere is refused whole.
	clash := []incremental.RoutedOp{
		{Seq: 15, Kind: incremental.OpInsert, ID: 7, URI: "u:f", Attrs: []entity.Attribute{{Name: "name", Value: "carol"}}},
		{Seq: 16, Kind: incremental.OpInsert, ID: 8, URI: "u:e", Attrs: []entity.Attribute{{Name: "name", Value: "carol"}}},
	}
	if err := whole.ApplyRouted(context.Background(), clash, nil); err == nil {
		t.Fatal("frame binding a live URI accepted")
	}
	if whole.LastSeq() != 14 || whole.Slots() != 7 {
		t.Fatalf("refused frame applied: seq %d, %d slots", whole.LastSeq(), whole.Slots())
	}
}

// TestRoutedPerOpFixture reopens a shard directory journaled one record
// per routed operation: the old records replay as frames of one, to the
// state the same stream reaches as one frame, and the shard then accepts
// frames.
func TestRoutedPerOpFixture(t *testing.T) {
	dir := legacyFixture{dir: "routed-per-op-v1"}.copyDir(t)
	re, err := incremental.OpenResolver(dir, legacyRoutedConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Recovery().ReplayedRecords; got != 6 {
		t.Fatalf("replayed %d per-operation records, want 6", got)
	}
	want, err := incremental.New(legacyRoutedConfig())
	if err != nil {
		t.Fatal(err)
	}
	applyAcked(t, want, legacyRoutedOps(), false)
	if re.LastSeq() != 14 {
		t.Fatalf("recovered LastSeq %d, want 14", re.LastSeq())
	}
	assertSameShard(t, re, want)
	next := []incremental.RoutedOp{
		{Seq: 15, Kind: incremental.OpInsert, ID: 7, URI: "u:f", Attrs: []entity.Attribute{{Name: "name", Value: "alice smith"}}},
		{Seq: 16, Kind: incremental.OpInsert, Advance: true, ID: 8},
		{Seq: 17, Kind: incremental.OpDelete, ID: 0},
	}
	appends := re.Perf().JournalAppends
	applyAcked(t, re, next, false)
	applyAcked(t, want, next, false)
	if got := re.Perf().JournalAppends - appends; got != 1 {
		t.Fatalf("frame took %d journal appends", got)
	}
	assertSameShard(t, re, want)
}
