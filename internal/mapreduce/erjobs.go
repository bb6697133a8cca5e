package mapreduce

import (
	"fmt"
	"math"
	"strconv"

	"entityres/internal/blocking"
	"entityres/internal/entity"
	"entityres/internal/graph"
	"entityres/internal/metablocking"
	"entityres/internal/token"
)

// ParallelTokenBlocking is token blocking as a MapReduce job (the Dedoop
// pattern of [18]): map emits (token, description) for every profile
// token; reduce materializes one block per token. The result equals the
// sequential blocking.TokenBlocking output. blocking.BuildSharded is the
// in-process counterpart core.Pipeline uses (shared-memory shard
// merge instead of shuffle, generalized over every KeyedBlocker).
func ParallelTokenBlocking(c *entity.Collection, p *token.Profiler, workers int) (*blocking.Blocks, error) {
	p = p.OrDefault()
	type member struct {
		id     entity.ID
		source int
	}
	job := Job{
		Name:    "token-blocking",
		Workers: workers,
		Map: func(input any, emit func(string, any)) {
			d := input.(*entity.Description)
			for t := range p.Set(d) {
				emit(t, member{id: d.ID, source: d.Source})
			}
		},
		Reduce: func(key string, values []any, emit func(string, any)) {
			b := &blocking.Block{Key: key}
			for _, v := range values {
				m := v.(member)
				if m.source == 1 {
					b.S1 = append(b.S1, m.id)
				} else {
					b.S0 = append(b.S0, m.id)
				}
			}
			emit(key, b)
		},
	}
	inputs := make([]any, 0, c.Len())
	for _, d := range c.All() {
		inputs = append(inputs, d)
	}
	kvs, err := Run(job, inputs)
	if err != nil {
		return nil, err
	}
	bs := blocking.NewBlocks(c.Kind())
	for _, kv := range kvs {
		bs.Add(kv.Value.(*blocking.Block))
	}
	return bs, nil
}

// pairKey renders a canonical pair as an intermediate key.
func pairKey(p entity.Pair) string {
	return strconv.Itoa(p.A) + ":" + strconv.Itoa(p.B)
}

// partial is the per-block contribution to one edge's statistics.
type partial struct {
	cbs  int
	arcs float64
}

// ParallelBuildGraph constructs the weighted blocking graph with the
// three-stage parallel meta-blocking strategy of [10], [11]:
//
//  1. a job counts, per description, the blocks containing it (the entity
//     index);
//  2. a job maps every block to its comparisons, emitting partial CBS/ARCS
//     contributions per pair, and reduces them into aggregate edge stats;
//  3. EJS only: a degree-counting job over the distinct edges.
//
// Weights are then computed per edge from the aggregates. The result
// equals metablocking.BuildGraph. The node-centric kernel behind
// metablocking.RestructureParallel is the in-process counterpart
// core.Pipeline uses; a weighting-semantics change in either place must be
// mirrored in the other.
func ParallelBuildGraph(bs *blocking.Blocks, scheme metablocking.WeightScheme, workers int) (*graph.Graph, error) {
	kind := bs.Kind()
	blockInputs := make([]any, 0, bs.Len())
	for _, b := range bs.All() {
		blockInputs = append(blockInputs, b)
	}

	// Stage 1: entity index (|B_e| per description).
	idxJob := Job{
		Name:    "entity-index",
		Workers: workers,
		Map: func(input any, emit func(string, any)) {
			b := input.(*blocking.Block)
			for _, id := range b.S0 {
				emit(strconv.Itoa(id), 1)
			}
			for _, id := range b.S1 {
				emit(strconv.Itoa(id), 1)
			}
		},
		Reduce: func(key string, values []any, emit func(string, any)) {
			emit(key, len(values))
		},
	}
	idxOut, err := Run(idxJob, blockInputs)
	if err != nil {
		return nil, err
	}
	blocksPer := make(map[entity.ID]int, len(idxOut))
	for _, kv := range idxOut {
		id, err := strconv.Atoi(kv.Key)
		if err != nil {
			return nil, fmt.Errorf("mapreduce: bad entity key %q: %w", kv.Key, err)
		}
		blocksPer[id] = kv.Value.(int)
	}

	// Stage 2: edge aggregation.
	edgeJob := Job{
		Name:    "edge-weights",
		Workers: workers,
		Map: func(input any, emit func(string, any)) {
			b := input.(*blocking.Block)
			comp := b.Comparisons(kind)
			b.EachComparison(kind, func(x, y entity.ID) bool {
				emit(pairKey(entity.NewPair(x, y)), partial{cbs: 1, arcs: 1 / float64(comp)})
				return true
			})
		},
		Reduce: func(key string, values []any, emit func(string, any)) {
			agg := partial{}
			for _, v := range values {
				pv := v.(partial)
				agg.cbs += pv.cbs
				agg.arcs += pv.arcs
			}
			emit(key, agg)
		},
	}
	edgeOut, err := Run(edgeJob, blockInputs)
	if err != nil {
		return nil, err
	}

	// Stage 3 (EJS only): node degrees over distinct edges.
	degree := make(map[entity.ID]int)
	if scheme == metablocking.EJS {
		degJob := Job{
			Name:    "degrees",
			Workers: workers,
			Map: func(input any, emit func(string, any)) {
				kv := input.(KV)
				p, err := parsePairKey(kv.Key)
				if err != nil {
					return
				}
				emit(strconv.Itoa(p.A), 1)
				emit(strconv.Itoa(p.B), 1)
			},
			Reduce: func(key string, values []any, emit func(string, any)) {
				emit(key, len(values))
			},
		}
		degInputs := make([]any, len(edgeOut))
		for i, kv := range edgeOut {
			degInputs[i] = kv
		}
		degOut, err := Run(degJob, degInputs)
		if err != nil {
			return nil, err
		}
		for _, kv := range degOut {
			id, err := strconv.Atoi(kv.Key)
			if err != nil {
				return nil, fmt.Errorf("mapreduce: bad degree key %q: %w", kv.Key, err)
			}
			degree[id] = kv.Value.(int)
		}
	}

	numBlocks := float64(bs.Len())
	numEdges := float64(len(edgeOut))
	g := graph.New()
	for _, kv := range edgeOut {
		p, err := parsePairKey(kv.Key)
		if err != nil {
			return nil, err
		}
		st := kv.Value.(partial)
		var w float64
		switch scheme {
		case metablocking.CBS:
			w = float64(st.cbs)
		case metablocking.ECBS:
			w = float64(st.cbs) *
				math.Log(numBlocks/float64(blocksPer[p.A])) *
				math.Log(numBlocks/float64(blocksPer[p.B]))
		case metablocking.JS:
			w = jsWeight(st.cbs, blocksPer[p.A], blocksPer[p.B])
		case metablocking.EJS:
			w = jsWeight(st.cbs, blocksPer[p.A], blocksPer[p.B]) *
				math.Log(numEdges/float64(degree[p.A])) *
				math.Log(numEdges/float64(degree[p.B]))
		case metablocking.ARCS:
			w = st.arcs
		default:
			return nil, fmt.Errorf("mapreduce: unsupported weight scheme %v", scheme)
		}
		g.SetWeight(p.A, p.B, w)
	}
	return g, nil
}

func jsWeight(cbs, ba, bb int) float64 {
	union := ba + bb - cbs
	if union == 0 {
		return 0
	}
	return float64(cbs) / float64(union)
}

func parsePairKey(key string) (entity.Pair, error) {
	for i := 0; i < len(key); i++ {
		if key[i] == ':' {
			a, err1 := strconv.Atoi(key[:i])
			b, err2 := strconv.Atoi(key[i+1:])
			if err1 != nil || err2 != nil {
				return entity.Pair{}, fmt.Errorf("mapreduce: bad pair key %q", key)
			}
			return entity.Pair{A: a, B: b}, nil
		}
	}
	return entity.Pair{}, fmt.Errorf("mapreduce: bad pair key %q", key)
}

// ParallelMetaBlocking builds the blocking graph in parallel and applies
// the configured pruning, returning the restructured block collection —
// the end-to-end parallel meta-blocking pipeline of [10], [11].
func ParallelMetaBlocking(c *entity.Collection, bs *blocking.Blocks, m *metablocking.MetaBlocker, workers int) (*blocking.Blocks, error) {
	g, err := ParallelBuildGraph(bs, m.Weight, workers)
	if err != nil {
		return nil, err
	}
	kept := m.PruneGraph(g, bs)
	out := blocking.NewBlocks(bs.Kind())
	for _, e := range kept {
		b := &blocking.Block{Key: "meta:" + pairKey(entity.Pair{A: e.A, B: e.B})}
		for _, id := range []entity.ID{e.A, e.B} {
			if c.Get(id) != nil && c.Get(id).Source == 1 {
				b.S1 = append(b.S1, id)
			} else {
				b.S0 = append(b.S0, id)
			}
		}
		out.Add(b)
	}
	return out, nil
}
