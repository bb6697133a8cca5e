package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkJSON is the part of BENCHMARK.json the comparison needs: each
// end-to-end metric's direction and bound.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareFiles reads two -out files, A then B, and prints one row per
// (end-to-end metric, workload): within-bound, regressed or improved, by
// the bounds in the BENCHMARK.json at declPath. It returns 1 if any row
// regressed. Two sets of runs of one commit
// should agree within the bounds; that is what it is for here.
func compareFiles(declPath string, args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -compare takes two result files")
		return 2
	}
	var decl benchmarkJSON
	var a, b resultFile
	for path, v := range map[string]any{declPath: &decl, args[0]: &a, args[1]: &b} {
		raw, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(raw, v)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", path, err)
			return 2
		}
	}
	var names []string
	for name := range a.Results {
		if b.Results[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	regressed := 0
	fmt.Fprintf(w, "%-16s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "worse by", "bound", "verdict")
	for _, name := range names {
		for _, m := range decl.EndToEnd {
			va, vb := a.Results[name].Metrics[m.Name].Value, b.Results[name].Metrics[m.Name].Value
			// worse is the share of A by which B is worse, whatever the
			// metric's direction.
			worse := (vb - va) / va
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "within-bound"
			switch {
			case worse > m.Bound:
				verdict = "regressed"
				regressed++
			case worse < -m.Bound:
				verdict = "improved"
			}
			fmt.Fprintf(w, "%-16s %-18s %14.6g %14.6g %+8.2f%% %6.0f%%  %s\n", name, m.Name, va, vb, worse*100, m.Bound*100, verdict)
		}
	}
	if regressed > 0 {
		fmt.Fprintf(w, "%d regressed\n", regressed)
		return 1
	}
	return 0
}
