package blocking

import (
	"fmt"

	"entityres/internal/entity"
	"entityres/internal/index"
	"entityres/internal/similarity"
	"entityres/internal/token"
)

// Canopy implements canopy clustering as a blocker: repeatedly take the
// first unprocessed description as a seed, gather into one canopy (block)
// every description whose cheap TF-IDF cosine similarity to the seed is at
// least Loose, and retire from seeding those at least Tight-similar. Tight
// ≥ Loose; a larger gap yields more overlapping canopies. The cheap
// similarity is evaluated only against descriptions sharing at least one
// token with the seed, found through the inverted index.
type Canopy struct {
	// Loose is the canopy-membership threshold in (0,1] (default 0.15).
	Loose float64
	// Tight is the retire-from-seeding threshold, ≥ Loose (default 0.5).
	Tight float64
	// Profiler controls tokenization; nil means the default profiler.
	Profiler *token.Profiler
}

// Name implements Blocker.
func (cp *Canopy) Name() string { return "canopy" }

// Block implements Blocker.
func (cp *Canopy) Block(c *entity.Collection) (*Blocks, error) {
	loose, tight := cp.Loose, cp.Tight
	if loose <= 0 {
		loose = 0.15
	}
	if tight <= 0 {
		tight = 0.5
	}
	if tight < loose {
		return nil, fmt.Errorf("blocking: canopy tight threshold %v < loose %v", tight, loose)
	}
	p := cp.Profiler.OrDefault()
	ix := index.Build(c, p)
	// Cache token lists and TF-IDF vectors: canopy evaluates each
	// description against many seeds.
	tokens := make([][]string, c.Len())
	vectors := make([]similarity.Vector, c.Len())
	for _, d := range c.All() {
		tokens[d.ID] = p.Tokens(d)
		vectors[d.ID] = ix.TFIDFVector(tokens[d.ID])
	}
	active := make([]bool, c.Len()) // eligible as seed / not yet retired
	for i := range active {
		active[i] = true
	}
	bs := NewBlocks(c.Kind())
	for seed := 0; seed < c.Len(); seed++ {
		if !active[seed] {
			continue
		}
		active[seed] = false
		blk := &Block{Key: fmt.Sprintf("canopy/%d", seed)}
		addMember(blk, c, seed)
		// Candidates: descriptions sharing ≥1 token with the seed.
		cand := make(map[entity.ID]struct{})
		for _, t := range tokens[seed] {
			for _, post := range ix.Postings(t) {
				if post.Doc != seed {
					cand[post.Doc] = struct{}{}
				}
			}
		}
		for _, id := range sortIDs(idsOf(cand)) {
			sim := similarity.Cosine(vectors[seed], vectors[id])
			if sim >= loose {
				addMember(blk, c, id)
				if sim >= tight && active[id] {
					active[id] = false
				}
			}
		}
		bs.Add(blk)
	}
	return bs, nil
}

func addMember(b *Block, c *entity.Collection, id entity.ID) {
	if c.Get(id).Source == 1 {
		b.S1 = append(b.S1, id)
	} else {
		b.S0 = append(b.S0, id)
	}
}

func idsOf(m map[entity.ID]struct{}) []entity.ID {
	out := make([]entity.ID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	return out
}
