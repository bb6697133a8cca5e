package simjoin

import (
	"fmt"

	"entityres/internal/blocking"
	"entityres/internal/entity"
	"entityres/internal/token"
)

// Blocking adapts the similarity join to the Blocker interface: every
// joined pair becomes a two-description block, so downstream matching only
// examines pairs whose token Jaccard already reaches the threshold. This is
// the "similarity join as blocking" usage described in §II of the paper.
type Blocking struct {
	// Threshold is the Jaccard join threshold in (0,1] (default 0.3 — low,
	// because blocking must preserve recall).
	Threshold float64
	// Positional enables the PPJoin positional filter.
	Positional bool
	// Profiler controls tokenization; nil means token.DefaultProfiler.
	Profiler *token.Profiler
}

// Name implements blocking.Blocker.
func (sb *Blocking) Name() string { return "simjoin" }

// Block implements blocking.Blocker.
func (sb *Blocking) Block(c *entity.Collection) (*blocking.Blocks, error) {
	th := sb.Threshold
	if th == 0 {
		th = 0.3
	}
	p := sb.Profiler.OrDefault()
	inputs := make([]Input, 0, c.Len())
	for _, d := range c.All() {
		inputs = append(inputs, Input{ID: d.ID, Source: d.Source, Tokens: p.Tokens(d)})
	}
	results, err := Jaccard(inputs, th, Options{
		Positional: sb.Positional,
		CrossOnly:  c.Kind() == entity.CleanClean,
	})
	if err != nil {
		return nil, err
	}
	bs := blocking.NewBlocks(c.Kind())
	for _, r := range results {
		b := &blocking.Block{Key: fmt.Sprintf("sj:%d-%d", r.Pair.A, r.Pair.B)}
		for _, id := range []entity.ID{r.Pair.A, r.Pair.B} {
			if c.Get(id).Source == 1 {
				b.S1 = append(b.S1, id)
			} else {
				b.S0 = append(b.S0, id)
			}
		}
		bs.Add(b)
	}
	return bs, nil
}
