package experiments

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"repro/internal/plot"
	"repro/internal/sched"
)

// Table is the one artifact every experiment publishes. Rows are runs
// (or a run's snapshots), identified by their string key columns, the
// last of which is always the seed; every other column is a named
// numeric metric.
type Table struct {
	Name  string   `json:"name"` // file base: <name>-<scale>.csv and .json
	Title string   `json:"title"`
	Keys  []string `json:"keys"`
	Cols  []string `json:"columns"`
	Rows  []Row    `json:"rows"`
	// Plot names accuracy columns drawn as one SVG panel each
	// (<name>-<scale>-<col>.svg) against the first column, one line per
	// distinct first key.
	Plot []string `json:"-"`
	seed string
}

// Row is one run: its key values, then one value per column.
type Row struct {
	Key  []string  `json:"key"`
	Vals []float64 `json:"values"`
}

// newTable starts an empty table; the seed key column follows keys.
func newTable(name, title string, seed uint64, keys []string, cols ...string) *Table {
	return &Table{
		Name: name, Title: title,
		Keys: append(keys[:len(keys):len(keys)], "seed"),
		Cols: cols,
		seed: strconv.FormatUint(seed, 10),
	}
}

// add appends a row; the seed completes its key.
func (t *Table) add(key []string, vals ...float64) {
	t.Rows = append(t.Rows, Row{Key: append(key[:len(key):len(key)], t.seed), Vals: vals})
}

// job is one training run of an experiment: the key of its row and the
// run that measures the row's values.
type job struct {
	key []string
	run func() ([]float64, error)
}

// fill runs the jobs through the scheduler and adds their rows in job
// order, so the table is identical for any worker count.
func (t *Table) fill(pool *sched.Pool, jobs []job) error {
	vals, err := sched.Map(pool, t.Name, len(jobs), func(i int) ([]float64, error) { return jobs[i].run() })
	if err != nil {
		return err
	}
	for i, v := range vals {
		t.add(jobs[i].key, v...)
	}
	return nil
}

// cell prints an integer float64 holds exactly (a count, a round, a
// byte total) with every digit and any other value to ten significant
// digits.
func cell(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 10, 64)
}

// header names the key columns, then the metric columns.
func (t *Table) header() []string { return append(append([]string(nil), t.Keys...), t.Cols...) }

// cells lays a row out as its key followed by its formatted values.
func (r Row) cells() []string {
	out := append([]string(nil), r.Key...)
	for _, v := range r.Vals {
		out = append(out, cell(v))
	}
	return out
}

// Render returns the table as markdown.
func (t *Table) Render() string {
	var b strings.Builder
	line := func(cells []string) { fmt.Fprintf(&b, "| %s |\n", strings.Join(cells, " | ")) }
	fmt.Fprintf(&b, "## %s\n\n", t.Title)
	line(t.header())
	b.WriteString("|" + strings.Repeat(" --- |", len(t.Keys)+len(t.Cols)) + "\n")
	for _, r := range t.Rows {
		line(r.cells())
	}
	return b.String()
}

// writeFiles writes base.csv, base.json and one base-<col>.svg per Plot
// column under dir.
func (t *Table) writeFiles(dir, base string) error {
	rows := [][]string{t.header()}
	for _, r := range t.Rows {
		rows = append(rows, r.cells())
	}
	if err := create(filepath.Join(dir, base+".csv"), func(f io.Writer) error {
		return csv.NewWriter(f).WriteAll(rows)
	}); err != nil {
		return err
	}
	if err := create(filepath.Join(dir, base+".json"), func(f io.Writer) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(t)
	}); err != nil {
		return err
	}
	for _, col := range t.Plot {
		if err := create(filepath.Join(dir, base+"-"+col+".svg"), t.chart(col).WriteSVG); err != nil {
			return err
		}
	}
	return nil
}

// chart draws column col against the first column, one series per
// distinct first key in order of appearance.
func (t *Table) chart(col string) *plot.Chart {
	label := col + " test accuracy"
	c := &plot.Chart{
		Title: t.Title + ": " + label, XLabel: "training rounds", YLabel: label,
		YFixed: true, YMin: 0, YMax: 1,
	}
	y := slices.Index(t.Cols, col)
	for _, r := range t.Rows {
		if n := len(c.Series); n == 0 || c.Series[n-1].Name != r.Key[0] {
			c.Series = append(c.Series, plot.Series{Name: r.Key[0]})
		}
		s := &c.Series[len(c.Series)-1]
		s.X = append(s.X, r.Vals[0])
		s.Y = append(s.Y, r.Vals[y])
	}
	return c
}

// create writes path through write and reports the first error of the
// write or the close.
func create(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Export prints every table to out as markdown and, when dir is not
// empty, writes each one's files there as <name>-<scale>.
func Export(tables []*Table, out io.Writer, dir string, scale Scale) error {
	for _, t := range tables {
		if _, err := fmt.Fprintln(out, t.Render()); err != nil {
			return err
		}
		if dir == "" {
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		if err := t.writeFiles(dir, t.Name+"-"+scale.String()); err != nil {
			return err
		}
	}
	return nil
}
