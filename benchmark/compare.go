package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// manifestFile is the benchmark's contract, at the repository root.
const manifestFile = "BENCHMARK.json"

// manifest is the part of BENCHMARK.json the harness itself reads.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

// declared is one metric as BENCHMARK.json declares it.
type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // end-to-end only: allowed worsening, as a share
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints, per workload and end-to-end metric, both values,
// how much worse b is than a, and the bound. It returns 1 when b is worse
// than a by more than a bound anywhere, and 2 when the files cannot be
// compared at all.
func compareFiles(out io.Writer, aPath, bPath string) int {
	var m manifest
	var a, b resultSet
	for path, v := range map[string]any{manifestFile: &m, aPath: &a, bPath: &b} {
		if err := readJSON(path, v); err != nil {
			fmt.Fprintln(out, "compare:", err)
			return 2
		}
	}
	return compareSets(out, m, a, b)
}

func compareSets(out io.Writer, m manifest, a, b resultSet) int {
	if a.Env.Kernel != b.Env.Kernel || a.Env.GOMAXPROCS != b.Env.GOMAXPROCS || a.Env.Seed != b.Env.Seed {
		fmt.Fprintf(out, "compare: refusing sets measured differently: kernel class %s vs %s, GOMAXPROCS %d vs %d, seed %d vs %d\n",
			a.Env.Kernel, b.Env.Kernel, a.Env.GOMAXPROCS, b.Env.GOMAXPROCS, a.Env.Seed, b.Env.Seed)
		return 2
	}
	code := 0
	fmt.Fprintf(out, "%-14s %-22s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse by", "bound")
	for _, w := range m.Workloads {
		ra, rb := a.Workloads[w.Name], b.Workloads[w.Name]
		if !ra.Correct || !rb.Correct {
			fmt.Fprintf(out, "%-14s missing or incorrect in one of the sets\n", w.Name)
			code = 1
			continue
		}
		for _, d := range m.EndToEnd {
			va, oka := ra.Metrics[d.Name]
			vb, okb := rb.Metrics[d.Name]
			if !oka || !okb {
				fmt.Fprintf(out, "%-14s %-22s missing in one of the sets\n", w.Name, d.Name)
				code = 1
				continue
			}
			worse := (vb.Value - va.Value) / va.Value
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > d.Bound {
				verdict = "  REGRESSION"
				code = 1
			}
			fmt.Fprintf(out, "%-14s %-22s %14.6g %14.6g %+8.2f%% %6.1f%%%s\n", w.Name, d.Name, va.Value, vb.Value, 100*worse, 100*d.Bound, verdict)
		}
	}
	return code
}
