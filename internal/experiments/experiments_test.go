package experiments

import (
	"strings"
	"testing"
)

const seed = 42

// TestAllExperimentsRun smoke-tests every experiment at small scale and
// checks that each emits a non-trivial table.
func TestAllExperimentsRun(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			res, err := e.Run(Small, seed)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Table.Rows) == 0 {
				t.Fatal("empty table")
			}
			var sb strings.Builder
			if err := res.Table.Fprint(&sb); err != nil {
				t.Fatal(err)
			}
			if len(sb.String()) == 0 {
				t.Fatal("empty render")
			}
		})
	}
}

// The shape assertions below encode the expected qualitative results from
// the surveyed papers; they are the reproduction criteria, not just smoke
// tests.

func TestE1Shape(t *testing.T) {
	res, err := E1BlockingMethods(Small, seed)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if !(m["token_PC"] > 0.9) {
		t.Fatalf("token blocking PC = %v, want near-total", m["token_PC"])
	}
	if !(m["standard_PC"] < 0.5) {
		t.Fatalf("standard blocking PC = %v, should collapse under heterogeneity", m["standard_PC"])
	}
	if !(m["attrclustering_PQ"] >= m["token_PQ"]) {
		t.Fatalf("attribute clustering PQ %v should not trail token blocking %v",
			m["attrclustering_PQ"], m["token_PQ"])
	}
	if !(m["simjoin_PQ"] > m["token_PQ"]) {
		t.Fatalf("simjoin PQ %v should beat token blocking %v", m["simjoin_PQ"], m["token_PQ"])
	}
}

func TestE2Shape(t *testing.T) {
	res, err := E2BlockPurging(Small, seed)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	raw := m["raw token blocking_comparisons"]
	purged := m["+ size purging_comparisons"]
	filtered := m["+ block filtering_comparisons"]
	if !(purged < raw/5 && filtered < purged) {
		t.Fatalf("comparison counts should fall: %v → %v → %v", raw, purged, filtered)
	}
	// Purging is nearly free: oversized blocks carry almost no unique
	// signal.
	if m["+ size purging_PC"] < m["raw token blocking_PC"]-0.02 {
		t.Fatalf("purging PC loss too high: %v → %v",
			m["raw token blocking_PC"], m["+ size purging_PC"])
	}
	// Filtering trades a modest PC share for the further cut; on the short
	// token profiles of this generator the cost is higher than on the rich
	// profiles of the original paper.
	if m["+ block filtering_PC"] < m["raw token blocking_PC"]-0.15 {
		t.Fatalf("PC lost too much: %v → %v",
			m["raw token blocking_PC"], m["+ block filtering_PC"])
	}
}

func TestE3Shape(t *testing.T) {
	res, err := E3MetaBlocking(Small, seed)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	// Cardinality pruning cuts comparisons hard while PC stays usable.
	if !(m["ARCS_CNP_kept"] < 30) {
		t.Fatalf("CNP kept %v%%, expected a strong cut", m["ARCS_CNP_kept"])
	}
	if !(m["ARCS_CNP_PC"] > 0.7) {
		t.Fatalf("ARCS+CNP PC = %v, too much recall lost", m["ARCS_CNP_PC"])
	}
	// Every scheme must keep a usable PC under WNP.
	for _, w := range []string{"CBS", "ECBS", "JS", "EJS", "ARCS"} {
		if !(m[w+"_WNP_PC"] > 0.7) {
			t.Fatalf("%s+WNP PC = %v", w, m[w+"_WNP_PC"])
		}
	}
}

func TestE5Shape(t *testing.T) {
	res, err := E5SimilarityJoin(Small, seed)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if !(m["pairs_t0.3"] > m["pairs_t0.5"] && m["pairs_t0.5"] > m["pairs_t0.9"]) {
		t.Fatalf("pair counts should fall with threshold: %v %v %v",
			m["pairs_t0.3"], m["pairs_t0.5"], m["pairs_t0.9"])
	}
	if !(m["coverage_t0.3"] >= m["coverage_t0.9"]) {
		t.Fatal("coverage should not grow with threshold")
	}
}

func TestE7Shape(t *testing.T) {
	res, err := E7RSwoosh(Small, seed)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if !(m["saved_r1.0"] > m["saved_r0.2"]) {
		t.Fatalf("savings should grow with duplication: %v vs %v",
			m["saved_r1.0"], m["saved_r0.2"])
	}
	if !(m["saved_r1.0"] > 20) {
		t.Fatalf("high-duplication savings = %v%%", m["saved_r1.0"])
	}
}

func TestE8Shape(t *testing.T) {
	res, err := E8CollectiveER(Small, seed)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if !(m["collective_recall"] > m["baseline_recall"]) {
		t.Fatalf("collective recall %v should beat baseline %v",
			m["collective_recall"], m["baseline_recall"])
	}
	if !(m["collective_F1"] >= m["baseline_F1"]) {
		t.Fatalf("collective F1 %v regressed vs %v", m["collective_F1"], m["baseline_F1"])
	}
}

func TestE9Shape(t *testing.T) {
	res, err := E9IterativeBlocking(Small, seed)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if !(m["iterative_comparisons"] < m["onepass_comparisons"]/2) {
		t.Fatalf("iterative should save most comparisons: %v vs %v",
			m["iterative_comparisons"], m["onepass_comparisons"])
	}
	// Against the honest pairwise baseline, merge propagation adds recall.
	if !(m["iterative_recall"] >= m["onepass_raw_recall"]-1e-9) {
		t.Fatalf("iterative recall %v below raw one-pass %v",
			m["iterative_recall"], m["onepass_raw_recall"])
	}
	// Against the closed baseline, iterative may concede a little recall
	// (merged profiles can dilute borderline similarities) but must win on
	// precision, since every transitive merge was re-verified.
	if !(m["iterative_recall"] >= m["onepass_recall"]-0.03) {
		t.Fatalf("iterative recall %v far below closed one-pass %v",
			m["iterative_recall"], m["onepass_recall"])
	}
	if !(m["iterative_precision"] >= m["onepass_precision"]-1e-9) {
		t.Fatalf("iterative precision %v below closed one-pass %v",
			m["iterative_precision"], m["onepass_precision"])
	}
}

func TestE10Shape(t *testing.T) {
	res, err := E10Progressive(Small, seed)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	for _, s := range []string{"psnm+lookahead", "slidingwindow", "hierarchy", "benefitcost"} {
		if !(m[s+"_AUC"] > m["random_AUC"]) {
			t.Fatalf("%s AUC %v should beat random %v", s, m[s+"_AUC"], m["random_AUC"])
		}
	}
	if !(m["psnm+lookahead_r10"] > 0.6) {
		t.Fatalf("psnm+lookahead recall@10%% = %v", m["psnm+lookahead_r10"])
	}
}

func TestE11Shape(t *testing.T) {
	res, err := E11BudgetWindows(Small, seed)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	best := 0.0
	for name, v := range m {
		if strings.HasPrefix(name, "benefitcost") && v > best {
			best = v
		}
	}
	if !(best > m["random"]) {
		t.Fatalf("best benefit/cost %v should beat random %v", best, m["random"])
	}
}

func TestE12Shape(t *testing.T) {
	res, err := E12ScaleSweep(Small, seed)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if !(m["exhaustive_slope"] > 1.8) {
		t.Fatalf("exhaustive slope = %v, expected ≈2", m["exhaustive_slope"])
	}
	if !(m["suggested_slope"] < 1.5) {
		t.Fatalf("suggested-comparison slope = %v, expected near-linear", m["suggested_slope"])
	}
	if !(m["block_time_slope"] < 1.6) {
		t.Fatalf("blocking time slope = %v, expected near-linear", m["block_time_slope"])
	}
}
