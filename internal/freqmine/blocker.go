package freqmine

import (
	"entityres/internal/blocking"
	"entityres/internal/entity"
	"entityres/internal/token"
)

// Blocking blocks descriptions on frequent token itemsets of a fixed size:
// a description joins the block of every frequent K-itemset fully contained
// in its token set. With K ≥ 2 the keys demand token co-occurrence, giving
// markedly smaller blocks than unigram token blocking.
type Blocking struct {
	// K is the itemset size used as blocking key (default 2).
	K int
	// MinSupport is the minimum support for an itemset to form a block
	// (default 2).
	MinSupport int
	// Profiler controls tokenization; nil means token.DefaultProfiler.
	Profiler *token.Profiler
}

// Name implements blocking.Blocker.
func (fb *Blocking) Name() string { return "freqitemset" }

// Block implements blocking.Blocker.
func (fb *Blocking) Block(c *entity.Collection) (*blocking.Blocks, error) {
	k := fb.K
	if k < 1 {
		k = 2
	}
	p := fb.Profiler.OrDefault()
	sets := make([]token.Set, c.Len())
	txs := make([][]string, c.Len())
	for _, d := range c.All() {
		sets[d.ID] = p.Set(d)
		txs[d.ID] = sets[d.ID].Sorted()
	}
	mined := Apriori(txs, fb.MinSupport, k)
	bs := blocking.NewBlocks(c.Kind())
	for _, is := range mined {
		if len(is.Items) != k {
			continue
		}
		b := &blocking.Block{Key: is.Key()}
		for _, d := range c.All() {
			if containsAllSorted(txs[d.ID], is.Items) {
				if d.Source == 1 {
					b.S1 = append(b.S1, d.ID)
				} else {
					b.S0 = append(b.S0, d.ID)
				}
			}
		}
		bs.Add(b)
	}
	return bs, nil
}
