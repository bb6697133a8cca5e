package main

import (
	"bytes"
	"fmt"
	"io"
	"testing"
)

// writeCorpus renders records one per line, the form compared byte for byte.
func writeCorpus(w io.Writer, recs []corpusRecord) error {
	for _, r := range recs {
		if _, err := fmt.Fprintf(w, "%s\t%s", r.URI, r.MatchOf); err != nil {
			return err
		}
		for _, a := range r.Attrs {
			if _, err := fmt.Fprintf(w, "\t%s=%s", a.Name, a.Value); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}

func corpusBytes(t *testing.T, seed int64, entities int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeCorpus(&buf, newCorpus(seed, entities).All()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCorpusIsAFunctionOfTheSeed(t *testing.T) {
	a, b := corpusBytes(t, 42, 2000), corpusBytes(t, 42, 2000)
	if !bytes.Equal(a, b) {
		t.Fatal("two corpora from one seed differ")
	}
	if bytes.Equal(a, corpusBytes(t, 7, 2000)) {
		t.Fatal("two seeds gave the same corpus")
	}
}

func TestCorpusHeadIsBounded(t *testing.T) {
	for _, sz := range scales {
		for _, entities := range []int{sz.liveEntities, sz.serveEntities} {
			for seed := int64(1); seed <= 3; seed++ {
				recs := newCorpus(seed, entities).All()
				if err := checkBoundedHead(recs); err != nil {
					t.Errorf("seed %d, %d entities: %v", seed, entities, err)
				}
				dups := 0
				for _, r := range recs {
					if r.MatchOf != "" {
						dups++
					}
				}
				if share := float64(dups) / float64(entities); share < 0.45 || share > 0.55 {
					t.Errorf("seed %d, %d entities: %.2f of entities have a duplicate, want about half", seed, entities, share)
				}
			}
		}
	}
}
