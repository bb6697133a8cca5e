package sharded_test

import (
	"context"
	"testing"

	"entityres/internal/blocking"
	"entityres/internal/entity"
	"entityres/internal/incremental"
	"entityres/internal/sharded"
	"entityres/internal/transport"
)

// The suites in this package drive the key partition end to end through
// the in-process deployment: the one coordinator (package transport) over
// shard servers hosted in this process, each configured by NodeConfig.

// openLocal opens the in-process deployment of cfg — durable under dir, in
// memory when dir is empty — and closes it when the test ends (Close after
// Abandon is a no-op).
func openLocal(t testing.TB, dir string, cfg sharded.Config) *transport.Coordinator {
	t.Helper()
	co, err := transport.OpenLocal(context.Background(), dir, cfg, transport.ClientOptions{})
	if err != nil {
		t.Fatalf("open %q: %v", dir, err)
	}
	t.Cleanup(func() { co.Close() })
	return co
}

// recovered reports whether every journal of a reopened deployment — the
// coordinator's and each shard's — found existing state.
func recovered(co *transport.Coordinator) bool {
	for _, rec := range co.Recovery() {
		if !rec.Recovered {
			return false
		}
	}
	return true
}

// The error-returning read API makes every reconciling read two-valued on
// both the coordinator and the single-node resolver; these interface-typed
// helpers keep test bodies on the happy path for either.

func mustStats(t testing.TB, r interface {
	Stats() (incremental.Stats, error)
}) incremental.Stats {
	t.Helper()
	st, err := r.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	return st
}

func mustMatches(t testing.TB, r interface {
	Matches() (*entity.Matches, error)
}) *entity.Matches {
	t.Helper()
	m, err := r.Matches()
	if err != nil {
		t.Fatalf("Matches: %v", err)
	}
	return m
}

func mustClusters(t testing.TB, r interface {
	Clusters() ([][]entity.ID, error)
}) [][]entity.ID {
	t.Helper()
	cl, err := r.Clusters()
	if err != nil {
		t.Fatalf("Clusters: %v", err)
	}
	return cl
}

func mustMatchedWith(t testing.TB, r interface {
	MatchedWith(entity.ID) ([]entity.ID, error)
}, id entity.ID) []entity.ID {
	t.Helper()
	ids, err := r.MatchedWith(id)
	if err != nil {
		t.Fatalf("MatchedWith(%d): %v", id, err)
	}
	return ids
}

func mustRestructuredBlocks(t testing.TB, r interface {
	RestructuredBlocks() (*blocking.Blocks, error)
}) *blocking.Blocks {
	t.Helper()
	bl, err := r.RestructuredBlocks()
	if err != nil {
		t.Fatalf("RestructuredBlocks: %v", err)
	}
	return bl
}

// mustSnapshot materializes the deployment's live state through its read
// surface as a fresh batch-shaped result: the dense live descriptions plus
// the match set remapped into that ID space, so a batch pipeline over the
// collection reproduces the matches. Callers hold the deployment still.
func mustSnapshot(t testing.TB, co *transport.Coordinator, kind entity.Kind) (*entity.Collection, *entity.Matches) {
	t.Helper()
	out := entity.NewCollection(kind)
	remap := map[entity.ID]entity.ID{}
	for id := entity.ID(0); id < entity.ID(mustStats(t, co).Inserts); id++ {
		if d, ok := co.Get(id); ok {
			d.ID = -1
			remap[id] = out.MustAdd(d)
		}
	}
	matches := entity.NewMatches()
	for _, p := range mustMatches(t, co).Pairs() {
		matches.Add(remap[p.A], remap[p.B])
	}
	return out, matches
}
