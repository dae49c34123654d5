package experiments

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func readCSV(t *testing.T, path string) [][]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// testFig is a one-curve figure of three snapshots.
func testFig() *FigResult {
	return &FigResult{
		Name:        "fig-test",
		TargetWorst: 0.5,
		Final:       map[AlgorithmName]Summary{HierMinimax: {Average: 0.9, Worst: 0.7, Variance: 3}},
		Series: []Series{{
			Algorithm:   HierMinimax,
			Rounds:      []int{0, 10, 20},
			CloudRounds: []int64{0, 40, 80},
			Average:     []float64{0.1, 0.5, 0.9},
			Worst:       []float64{0, 0.6, 0.7},
		}},
	}
}

func TestFigExport(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := Export(testFig().tables("fig-test", 42), &out, dir, Smoke); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "fig-test") {
		t.Fatal("render missing from output")
	}
	rows := readCSV(t, filepath.Join(dir, "fig-test-smoke.csv"))
	if len(rows) != 4 { // header + 3 snapshots
		t.Fatalf("csv rows: %d", len(rows))
	}
	want := []string{"method", "seed", "round", "cloud_rounds", "average", "worst"}
	if !reflect.DeepEqual(rows[0], want) || rows[2][4] != "0.5" {
		t.Fatalf("csv content: %v", rows)
	}
	// The summary carries the final triple and the sustained crossing of
	// the worst-accuracy target (0.6 at round 10, held at round 20).
	summary := readCSV(t, filepath.Join(dir, "fig-test-summary-smoke.csv"))
	if got := summary[1]; !reflect.DeepEqual(got, []string{"HierMinimax", "42", "0.9", "0.7", "3", "0.5", "10"}) {
		t.Fatalf("summary row %v", got)
	}
}

// TestTable2Export: the JSON file decodes back into the table it was
// written from.
func TestTable2Export(t *testing.T) {
	dir := t.TempDir()
	tab := newTable("t2", "Table 2", 42, []string{"dataset", "method"}, fairCols...)
	tab.add([]string{"d1", "HierFAvg"}, 0.8, 0.5, 100)
	tab.add([]string{"d1", "HierMinimax"}, 0.79, 0.6, 40)
	if err := Export([]*Table{tab}, &bytes.Buffer{}, dir, Small); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "t2-small.json"))
	if err != nil {
		t.Fatal(err)
	}
	var back Table
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	back.seed = tab.seed
	if !reflect.DeepEqual(&back, tab) {
		t.Fatalf("json round trip: %+v, want %+v", back, *tab)
	}
	rows := readCSV(t, filepath.Join(dir, "t2-small.csv"))
	if len(rows) != 3 || rows[2][1] != "HierMinimax" || rows[2][2] != "42" {
		t.Fatalf("csv: %v", rows)
	}
}

// TestTradeoffExport: CSV cells print integers exactly and every other
// value to ten significant digits.
func TestTradeoffExport(t *testing.T) {
	dir := t.TempDir()
	tab := newTable("t1", "Table 1", 42, nil, "alpha", "T", "cloud_rounds", "duality_gap")
	tab.add(nil, 0, 100, 400, 0.1)
	tab.add(nil, 0.5, 100, 44, 1.0/3)
	tab.add(nil, 0.75, 100, 8, 1e-12)
	if err := Export([]*Table{tab}, &bytes.Buffer{}, dir, Smoke); err != nil {
		t.Fatal(err)
	}
	rows := readCSV(t, filepath.Join(dir, "t1-smoke.csv"))
	want := [][]string{
		{"seed", "alpha", "T", "cloud_rounds", "duality_gap"},
		{"42", "0", "100", "400", "0.1"},
		{"42", "0.5", "100", "44", "0.3333333333"},
		{"42", "0.75", "100", "8", "1e-12"},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("csv: %v, want %v", rows, want)
	}
}

// TestAblationExport: the markdown rendering has a title, a header, a
// rule and one line per row, its cells formatted as in the CSV.
func TestAblationExport(t *testing.T) {
	tab := newTable("abl", "Ablations", 42, []string{"study", "variant"}, "average", "cloud_rounds", "uplink_mb")
	tab.add([]string{"A1", "v1"}, 0.91234, 10, 2.5)
	tab.add([]string{"A1", "v2"}, 0.0001234, 12, 2)
	want := "## Ablations\n\n" +
		"| study | variant | seed | average | cloud_rounds | uplink_mb |\n" +
		"| --- | --- | --- | --- | --- | --- |\n" +
		"| A1 | v1 | 42 | 0.91234 | 10 | 2.5 |\n" +
		"| A1 | v2 | 42 | 0.0001234 | 12 | 2 |\n"
	if got := tab.Render(); got != want {
		t.Fatalf("render:\n%s\nwant:\n%s", got, want)
	}
}

// TestCompressionExport: integer columns keep every digit, in the CSV
// and in the JSON; the compression sweep's wire_bytes runs to eleven.
func TestCompressionExport(t *testing.T) {
	dir := t.TempDir()
	tab := newTable("compression", "Compression", 42, []string{"regime", "faulted"}, "wire_bytes", "bytes_ratio")
	tab.add([]string{"none", "false"}, 41448960000, 1)
	tab.add([]string{"uniform-8bit", "false"}, 10452480123, 10452480123.0/41448960000)
	if err := Export([]*Table{tab}, &bytes.Buffer{}, dir, Small); err != nil {
		t.Fatal(err)
	}
	rows := readCSV(t, filepath.Join(dir, "compression-small.csv"))
	if rows[1][3] != "41448960000" || rows[2][3] != "10452480123" || rows[2][4] != "0.2521771384" {
		t.Fatalf("csv: %v", rows)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "compression-small.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte("41448960000,")) || !bytes.Contains(raw, []byte("10452480123,")) {
		t.Fatalf("json lost integer digits:\n%s", raw)
	}
}

func TestExportNoDir(t *testing.T) {
	var out bytes.Buffer
	if err := Export([]*Table{newTable("x", "X", 1, nil)}, &out, "", Smoke); err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Fatal("no render output")
	}
}

func TestExportCreatesDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "artifacts")
	tab := newTable("x", "X", 1, []string{"method"}, "average")
	tab.add([]string{string(HierFAvg)}, 0.5)
	if err := Export([]*Table{tab}, &bytes.Buffer{}, dir, Smoke); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "x-smoke.csv")); err != nil {
		t.Fatal("csv not created in nested dir")
	}
}

func TestFigExportWritesSVGs(t *testing.T) {
	dir := t.TempDir()
	if err := Export(testFig().tables("fig-svg", 42), &bytes.Buffer{}, dir, Smoke); err != nil {
		t.Fatal(err)
	}
	for _, suffix := range []string{"-average.svg", "-worst.svg"} {
		raw, err := os.ReadFile(filepath.Join(dir, "fig-svg-smoke"+suffix))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(raw), "<svg") || !strings.Contains(string(raw), "HierMinimax") ||
			!strings.Contains(string(raw), "fig-test: "+suffix[1:len(suffix)-4]+" test accuracy") {
			t.Fatalf("%s incomplete", suffix)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "fig-svg-summary-smoke-average.svg")); err == nil {
		t.Fatal("the summary table drew a panel")
	}
}
