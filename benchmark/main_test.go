package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// declaration is BENCHMARK.json as the contract shapes it.
type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

const declarationPath = "../BENCHMARK.json"

func readDeclaration(t *testing.T) declaration {
	t.Helper()
	raw, err := os.ReadFile(declarationPath)
	if err != nil {
		t.Fatal(err)
	}
	var d declaration
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeclarationMatchesTables keeps BENCHMARK.json and the tables the
// binary reports from in step.
func TestDeclarationMatchesTables(t *testing.T) {
	d := readDeclaration(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the binary has %d", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.name || d.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %q / %q, binary has %q / %q", i, d.Workloads[i].Name, d.Workloads[i].Why, w.name, w.why)
		}
	}
	check := func(kind string, got []declared, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: declared %d metrics, binary has %d", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s %d: declared %+v, binary has %+v", kind, i, g, m)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != m.Bound) {
				t.Errorf("%s %s: bound declared %v, binary has %v", kind, m.Name, g.Bound, m.Bound)
			}
		}
	}
	check("end_to_end", d.EndToEnd, endToEnd, true)
	check("per_layer", d.PerLayer, perLayer, false)
}

// TestSmoke runs every workload at the tiny scale, untraced and traced, and
// holds each run to the contract: every declared metric of the run's kind
// exactly once, finite, under a well-formed name, with every output check
// passed and nothing failed.
func TestSmoke(t *testing.T) {
	d := readDeclaration(t)
	wellFormed := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	file := resultFile{Results: make(map[string]*result)}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			e := &env{seed: 42, seconds: 0.01, trace: trace, sizes: scales["tiny"], workdir: t.TempDir(), workers: 2}
			spans := ""
			if trace {
				spans = filepath.Join(t.TempDir(), "spans.jsonl")
			}
			res, err := runWorkload(context.Background(), w, e, spans)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := d.EndToEnd
			if trace {
				want = d.PerLayer
				if info, err := os.Stat(spans); err != nil || info.Size() == 0 {
					t.Errorf("%s: no spans written: %v", w.name, err)
				}
			} else {
				file.Results[w.name] = res
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics reported, %d declared", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s is declared but not reported", w.name, trace, m.Name)
				case !wellFormed.MatchString(m.Name):
					t.Errorf("%s: metric name %q is malformed", w.name, m.Name)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s trace=%v: %s is not finite", w.name, trace, m.Name)
				case !trace && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, must never be 0", w.name, m.Name, v.Value)
				case v.Unit != m.Unit:
					t.Errorf("%s: %s reported in %q, declared in %q", w.name, m.Name, v.Unit, m.Unit)
				}
			}
		}
	}

	// The same results compared with themselves are within every bound; a
	// copy with one metric made worse than its bound regresses.
	write := func(name string, f resultFile) string {
		raw, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", file)
	var out bytes.Buffer
	if code := compareFiles(declarationPath, []string{a, a}, &out); code != 0 {
		t.Errorf("a result compared with itself exits %d:\n%s", code, out.String())
	}
	worse := file.Results["live"].Metrics["write_p50_us"]
	worse.Value *= 1.5
	file.Results["live"].Metrics["write_p50_us"] = worse
	if code := compareFiles(declarationPath, []string{a, write("b.json", file)}, &out); code != 1 {
		t.Errorf("a 50 %% worse write_p50_us exits %d, want 1", code)
	}
}
