package er_test

import (
	"context"
	"errors"
	"testing"

	"entityres/er"
)

// The error-returning read API (a poisoned journal surfaces as
// er.ErrBroken) makes every reconciling read two-valued on every resolver
// form; these interface-typed helpers keep test bodies on the happy path.

func mustStats(t testing.TB, r interface {
	Stats() (er.StreamingStats, error)
}) er.StreamingStats {
	t.Helper()
	st, err := r.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	return st
}

// snapshotOf reads r's live state through the public Resolver surface —
// every handle up to the insert count is queried — as a dense collection of
// the live descriptions plus their match pairs remapped into that ID space,
// the shape a batch pipeline over the collection reproduces.
func snapshotOf(t testing.TB, r er.Resolver) (*er.Collection, *er.Matches) {
	t.Helper()
	ctx := context.Background()
	st := mustStats(t, r)
	coll := er.NewCollection(er.Dirty)
	remap := map[er.ID]er.ID{}
	var results []er.Result
	for id := er.ID(0); id < er.ID(st.Inserts); id++ {
		res, err := r.Query(ctx, er.Query{ID: id})
		var nf *er.ErrNotFound
		if errors.As(err, &nf) {
			continue
		}
		if err != nil {
			t.Fatalf("Query(%d): %v", id, err)
		}
		res.Description.ID = -1
		remap[id] = coll.MustAdd(res.Description)
		results = append(results, res)
	}
	matches := er.NewMatches()
	for _, res := range results {
		for _, nb := range res.SameAs {
			matches.Add(remap[res.ID], remap[nb])
		}
	}
	return coll, matches
}
