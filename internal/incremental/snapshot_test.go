package incremental

import (
	"context"
	"fmt"
	"testing"

	"entityres/internal/blocking"
	"entityres/internal/entity"
	"entityres/internal/matching"
	"entityres/internal/metablocking"
)

// imageFuzzConfigs are the resolvers FuzzImage restores into: plain dirty,
// and the same under CBS/WEP meta-blocking.
func imageFuzzConfigs() []Config {
	plain := Config{
		Kind:    entity.Dirty,
		Blocker: &blocking.TokenBlocking{},
		Matcher: &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5},
	}
	meta := plain
	meta.Meta = &metablocking.MetaBlocker{Weight: metablocking.CBS, Prune: metablocking.WEP}
	return []Config{plain, meta}
}

// FuzzImage feeds arbitrary bytes through the image decoder and the one
// restore path on a fresh resolver, then makes one reconciling read. Every
// input must either fail with an error or restore a resolver that serves
// the read; none may panic. The seeds are real images of both
// configurations, with matches, dead slots, cached decisions, kept pairs
// and deferred meta work, so mutations start from deep inside the format.
func FuzzImage(f *testing.F) {
	ctx := context.Background()
	names := []string{"alice smith", "alice smyth", "bob brown", "bob browne", "carol jones", "alice smith jr"}
	for _, cfg := range imageFuzzConfigs() {
		r, err := New(cfg)
		if err != nil {
			f.Fatal(err)
		}
		for i, n := range names {
			if _, err := r.Insert(ctx, entity.NewDescription(fmt.Sprintf("u:%d", i)).Add("name", n)); err != nil {
				f.Fatal(err)
			}
			if i == 3 {
				if _, err := r.Matches(); err != nil {
					f.Fatal(err)
				}
			}
		}
		if err := r.Delete(1); err != nil {
			f.Fatal(err)
		}
		payload, _, err := r.encodeSnapshot()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Add([]byte(`{"format":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, cfg := range imageFuzzConfigs() {
			r, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			im, err := DecodeImage(data)
			if err != nil {
				return
			}
			if err := r.restore(im); err != nil {
				continue
			}
			r.Matches()
		}
	})
}
