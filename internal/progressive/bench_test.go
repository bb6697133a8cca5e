package progressive

import (
	"testing"

	"entityres/internal/blocking"
	"entityres/internal/datagen"
	"entityres/internal/entity"
	"entityres/internal/matching"
	"entityres/internal/metablocking"
)

func benchSetup(b *testing.B) (*entity.Collection, *blocking.Blocks, *entity.Matches) {
	b.Helper()
	c, gt, err := datagen.GenerateDirty(datagen.Config{Seed: 9, Entities: 600, DupRatio: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	bs, err := (&blocking.TokenBlocking{}).Block(c)
	if err != nil {
		b.Fatal(err)
	}
	return c, bs, gt
}

// BenchmarkSchedulers measures a 10%-budget progressive run per scheduler,
// reporting the recall each reaches (quality and cost in one table).
func BenchmarkSchedulers(b *testing.B) {
	c, bs, gt := benchSetup(b)
	budget := int64(bs.DistinctPairs().Len() / 10)
	m := &matching.Matcher{Sim: &matching.TokenJaccard{}, Threshold: 0.5}
	key := blocking.SortedTokensKey(nil)
	cases := []struct {
		name string
		make func() Scheduler
	}{
		{"static", func() Scheduler { return NewStaticOrder(bs) }},
		{"random", func() Scheduler { return NewRandomOrder(bs, 9) }},
		{"slidingwindow", func() Scheduler { return NewSlidingWindow(c, key, 0) }},
		{"hierarchy", func() Scheduler { return NewHierarchy(c, key, nil) }},
		{"psnm+lookahead", func() Scheduler { return NewPSNM(c, key, true, 0) }},
		{"benefitcost", func() Scheduler {
			return NewBenefitCost(metablocking.BuildGraph(bs, metablocking.ARCS), 64, 1)
		}},
	}
	for _, cs := range cases {
		b.Run(cs.name, func(b *testing.B) {
			var recall float64
			for i := 0; i < b.N; i++ {
				res := runOne(b, c, cs.make(), m, gt, budget)
				recall = res.Curve.Final().Recall
			}
			b.ReportMetric(recall, "recall@10%")
		})
	}
}
