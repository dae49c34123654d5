package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func loadManifest(t *testing.T) manifest {
	t.Helper()
	var m manifest
	if err := readJSON(filepath.Join("..", manifestFile), &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestQuickPassEmitsDeclaredMetrics runs every workload of BENCHMARK.json
// at -quick size, untraced and traced, and requires exactly the declared
// metrics, each finite and in its declared unit.
func TestQuickPassEmitsDeclaredMetrics(t *testing.T) {
	pinProcs()
	m := loadManifest(t)
	if len(m.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(m.Workloads), len(workloadNames))
	}
	outDir = t.TempDir()
	o := options{seed: 8, quick: true}
	for i, w := range m.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the harness", i, w.Name, workloadNames[i])
		}
		for _, traced := range []bool{false, true} {
			want := m.EndToEnd
			if traced {
				want = m.PerLayer
			}
			res, err := runWorkload(w.Name, o, traced)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				got, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: declared metric %s not emitted", w.Name, traced, d.Name)
				case got.Unit != d.Unit:
					t.Errorf("%s: %s emitted in %q, declared in %q", w.Name, d.Name, got.Unit, d.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: %s = %v", w.Name, d.Name, got.Value)
				}
			}
		}
		for _, f := range []string{"trace-" + w.Name + ".jsonl", "budget-" + w.Name + ".md"} {
			if st, err := os.Stat(filepath.Join(outDir, f)); err != nil || st.Size() == 0 {
				t.Errorf("traced run left no %s (%v)", f, err)
			}
		}
	}
}

func TestSlope(t *testing.T) {
	// 30 ms of setup (which holds the first round) and 2 ms per further round.
	if got := slope(0.030+99*0.002, 0.030, 100); math.Abs(got-0.002) > 1e-12 {
		t.Errorf("slope = %v, want 0.002", got)
	}
	if got := slope(0.5, 0.1, 1); got != 0.5 {
		t.Errorf("a one-round run has no slope to take: got %v, want the total", got)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN, so that it fails the finite check")
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its input")
	}
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = float64(n - i) // descending, so sorting matters
		}
		return vs
	}
	for _, c := range []struct {
		n, wantP int
		wantV    float64
	}{
		{2000, 99, 1980}, // 20 samples beyond p99
		{1000, 99, 990},  // exactly 10 beyond
		{500, 98, 490},   // p99 would leave 5
		{20, 100, 20},    // too few for any tail: the maximum
	} {
		p, v := tailPercentile(seq(c.n), 99)
		if p != c.wantP || v != c.wantV {
			t.Errorf("n=%d: p%d = %v, want p%d = %v", c.n, p, v, c.wantP, c.wantV)
		}
	}
}

func compareFixture() (manifest, resultSet, resultSet) {
	var m manifest
	m.Workloads = append(m.Workloads, struct {
		Name string `json:"name"`
	}{"w"})
	m.EndToEnd = []declared{
		{Name: "round_ms", Unit: "ms", Better: "lower", Bound: 0.1},
		{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.1},
	}
	set := func(ms, rate float64) resultSet {
		return resultSet{
			Env: environment{Kernel: "avx2", GOMAXPROCS: 2, Seed: 8},
			Workloads: map[string]result{"w": {Correct: true, Attempted: 1, Metrics: map[string]metric{
				"round_ms": {ms, "ms"}, "rate": {rate, "1/s"},
			}}},
		}
	}
	return m, set(10, 100), set(10, 100)
}

func TestCompare(t *testing.T) {
	var out bytes.Buffer
	m, a, b := compareFixture()
	if code := compareSets(&out, m, a, b); code != 0 {
		t.Errorf("equal sets: exit %d\n%s", code, out.String())
	}

	b.Workloads["w"].Metrics["round_ms"] = metric{10.9, "ms"} // 9 % slower: inside the bound
	b.Workloads["w"].Metrics["rate"] = metric{200, "1/s"}     // better, whatever the size
	if code := compareSets(&out, m, a, b); code != 0 {
		t.Errorf("within bounds: exit %d\n%s", code, out.String())
	}

	out.Reset()
	b.Workloads["w"].Metrics["round_ms"] = metric{11.5, "ms"}
	if code := compareSets(&out, m, a, b); code != 1 || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("15 %% slower: exit %d\n%s", code, out.String())
	}

	_, _, b = compareFixture()
	b.Workloads["w"].Metrics["rate"] = metric{85, "1/s"} // higher is better: 15 % worse
	if code := compareSets(&out, m, a, b); code != 1 {
		t.Errorf("15 %% lower rate: exit %d", code)
	}

	_, _, b = compareFixture()
	delete(b.Workloads["w"].Metrics, "rate")
	if code := compareSets(&out, m, a, b); code != 1 {
		t.Errorf("missing metric: exit %d", code)
	}

	for name, change := range map[string]func(*environment){
		"kernel class": func(e *environment) { e.Kernel = "sse2" },
		"GOMAXPROCS":   func(e *environment) { e.GOMAXPROCS = 4 },
		"seed":         func(e *environment) { e.Seed = 9 },
	} {
		_, _, b = compareFixture()
		change(&b.Env)
		if code := compareSets(&out, m, a, b); code != 2 {
			t.Errorf("differing %s: exit %d, want a refusal", name, code)
		}
	}
}
