package experiments

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/plot"
)

// Artifact is anything the harness can render as text and export as
// structured files for plotting.
type Artifact interface {
	Render() string
	// WriteFiles writes the artifact's CSV/JSON files under dir using
	// the given base name.
	WriteFiles(dir, base string) error
}

var (
	_ Artifact = (*FigResult)(nil)
	_ Artifact = (*Table2Result)(nil)
	_ Artifact = (*TradeoffResult)(nil)
	_ Artifact = (*AblationResult)(nil)
	_ Artifact = (*ChaosResult)(nil)
	_ Artifact = (*CompressionResult)(nil)
	_ Artifact = (*RateResult)(nil)
	_ Artifact = (*StationarityResult)(nil)
)

// writeCSV creates path and streams rows through a csv.Writer.
func writeCSV(path string, header []string, rows [][]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write(header); err != nil {
		return err
	}
	if err := w.WriteAll(rows); err != nil {
		return err
	}
	w.Flush()
	return w.Error()
}

// writeJSON marshals v indented into path.
func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', 10, 64) }

// WriteFiles writes <base>.csv (long-format curves: algorithm, round,
// cloud_rounds, average, worst) and <base>.json (full structure).
func (r *FigResult) WriteFiles(dir, base string) error {
	rows := make([][]string, 0, 64)
	for _, s := range r.Series {
		for i := range s.Rounds {
			rows = append(rows, []string{
				string(s.Algorithm),
				strconv.Itoa(s.Rounds[i]),
				strconv.FormatInt(s.CloudRounds[i], 10),
				ftoa(s.Average[i]),
				ftoa(s.Worst[i]),
			})
		}
	}
	if err := writeCSV(filepath.Join(dir, base+".csv"),
		[]string{"algorithm", "round", "cloud_rounds", "average", "worst"}, rows); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(dir, base+".json"), r); err != nil {
		return err
	}
	// Figure SVGs: the average- and worst-accuracy panels of the paper's
	// two-panel figures.
	for _, panel := range []struct {
		suffix, title string
		pick          func(Series) []float64
	}{
		{"-average", "average test accuracy", func(s Series) []float64 { return s.Average }},
		{"-worst", "worst test accuracy", func(s Series) []float64 { return s.Worst }},
	} {
		chart := &plot.Chart{
			Title:  r.Name + ": " + panel.title,
			XLabel: "training rounds",
			YLabel: panel.title,
			YFixed: true, YMin: 0, YMax: 1,
		}
		for _, s := range r.Series {
			xs := make([]float64, len(s.Rounds))
			for i, v := range s.Rounds {
				xs[i] = float64(v)
			}
			chart.Series = append(chart.Series, plot.Series{
				Name: string(s.Algorithm), X: xs, Y: panel.pick(s),
			})
		}
		f, err := os.Create(filepath.Join(dir, base+panel.suffix+".svg"))
		if err != nil {
			return err
		}
		if err := chart.WriteSVG(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// WriteFiles writes the Table-2 rows as CSV and JSON.
func (t *Table2Result) WriteFiles(dir, base string) error {
	rows := make([][]string, 0, len(t.Rows))
	for _, r := range t.Rows {
		rows = append(rows, []string{
			r.Dataset, string(r.Method), ftoa(r.Average), ftoa(r.Worst), ftoa(r.Variance),
		})
	}
	if err := writeCSV(filepath.Join(dir, base+".csv"),
		[]string{"dataset", "method", "average", "worst", "variance"}, rows); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, base+".json"), t)
}

// WriteFiles writes the alpha sweep as CSV and JSON.
func (t *TradeoffResult) WriteFiles(dir, base string) error {
	rows := make([][]string, 0, len(t.Points))
	for _, p := range t.Points {
		rows = append(rows, []string{
			ftoa(p.Alpha), strconv.Itoa(p.Tau1), strconv.Itoa(p.Tau2),
			strconv.Itoa(p.Rounds), strconv.FormatInt(p.CloudRounds, 10),
			ftoa(p.DualityGap), ftoa(p.FinalAvg), ftoa(p.FinalWorst),
		})
	}
	if err := writeCSV(filepath.Join(dir, base+".csv"),
		[]string{"alpha", "tau1", "tau2", "rounds", "cloud_rounds", "duality_gap", "final_avg", "final_worst"}, rows); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, base+".json"), t)
}

// WriteFiles writes the ablation rows as CSV and JSON.
func (a *AblationResult) WriteFiles(dir, base string) error {
	rows := make([][]string, 0, len(a.Rows))
	for _, r := range a.Rows {
		rows = append(rows, []string{
			r.Study, r.Variant, ftoa(r.Average), ftoa(r.Worst), ftoa(r.Variance),
			strconv.FormatInt(r.CloudRounds, 10), ftoa(r.UplinkMB),
		})
	}
	if err := writeCSV(filepath.Join(dir, base+".csv"),
		[]string{"study", "variant", "average", "worst", "variance", "cloud_rounds", "uplink_mb"}, rows); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, base+".json"), a)
}

// Export renders the artifact to out and, when dir is non-empty, writes
// its files there (creating the directory).
func Export(a Artifact, out io.Writer, dir, base string) error {
	if _, err := fmt.Fprintln(out, a.Render()); err != nil {
		return err
	}
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return a.WriteFiles(dir, base)
}
