package er_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"entityres/er"
)

// TestQueryClusterOf checks the per-handle cluster read on every
// deployment form, meta-blocking included: after a churny stream, each
// live description's Query cluster is the connected component its SameAs
// edges span (a singleton when it matches nothing), and Stats counts the
// non-singleton ones.
func TestQueryClusterOf(t *testing.T) {
	ctx := context.Background()
	forms := openAll(t, ctx)
	for _, shards := range []int{0, 2} {
		cfg := v2Config()
		cfg.Meta = &er.MetaBlocker{Weight: er.CBS, Prune: er.WEP}
		cfg.Shards = shards
		r, err := er.Open(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		forms[fmt.Sprintf("meta/shards=%d", shards)] = r
	}
	c, _, err := er.GenerateDirty(er.GenConfig{Entities: 40, Seed: 9, DupRatio: 0.7, MaxDuplicates: 2})
	if err != nil {
		t.Fatal(err)
	}
	descs := c.All()
	var ops []er.StreamOp
	for i, d := range descs {
		ops = append(ops, er.StreamOp{Kind: er.StreamInsert, URI: d.URI, Attrs: d.Attrs})
		switch i % 7 {
		case 3: // rewrite an earlier description as a copy of this one
			ops = append(ops, er.StreamOp{Kind: er.StreamUpdate, URI: descs[i-2].URI, Attrs: d.Attrs})
		case 5:
			ops = append(ops, er.StreamOp{Kind: er.StreamDelete, URI: descs[i-1].URI})
		}
	}
	for name, r := range forms {
		for at := 0; at < len(ops); at += 16 {
			if err := r.ApplyBatch(ctx, ops[at:min(at+16, len(ops))]); err != nil {
				t.Fatalf("%s: batch at %d: %v", name, at, err)
			}
		}
		clusters := map[er.ID]bool{}
		for _, d := range descs {
			res, err := r.Query(ctx, er.Query{URI: d.URI, Cluster: true})
			if err != nil {
				continue // deleted
			}
			want := []er.ID{res.ID}
			for i := 0; i < len(want); i++ {
				nb, err := r.Query(ctx, er.Query{ID: want[i]})
				if err != nil {
					t.Fatalf("%s: query %d: %v", name, want[i], err)
				}
				for _, id := range nb.SameAs {
					if !slices.Contains(want, id) {
						want = append(want, id)
					}
				}
			}
			slices.Sort(want)
			if !slices.Equal(res.Cluster, want) {
				t.Fatalf("%s: cluster of %s = %v, SameAs closure %v", name, d.URI, res.Cluster, want)
			}
			if len(want) > 1 {
				clusters[want[0]] = true
			}
		}
		st, err := r.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if len(clusters) < 3 || st.Clusters != len(clusters) {
			t.Fatalf("%s: Stats counts %d clusters, queries found %d", name, st.Clusters, len(clusters))
		}
	}
}
