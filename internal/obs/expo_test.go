package obs

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
)

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("runs_total").Add(3)
	r.Counter(`msgs_total{link="client-edge"}`).Add(7)
	r.Gauge("depth").Set(4)
	h := r.Histogram("lat_ms", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE runs_total counter",
		"runs_total 3",
		`msgs_total{link="client-edge"} 7`,
		"# TYPE depth gauge",
		"depth 4",
		"# TYPE lat_ms histogram",
		`lat_ms_bucket{le="1"} 1`,
		`lat_ms_bucket{le="10"} 2`,
		`lat_ms_bucket{le="+Inf"} 3`,
		"lat_ms_sum 55.5",
		"lat_ms_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Parseable: every non-comment line is `name{labels} value`.
	for _, ln := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(ln, "#") {
			continue
		}
		fields := strings.Fields(ln)
		if len(fields) != 2 {
			t.Fatalf("malformed sample line %q", ln)
		}
		if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
			t.Fatalf("non-numeric sample value in %q: %v", ln, err)
		}
	}
}

// Labeled histograms must merge the series labels with the generated
// le label so Prometheus parses one family with two label dimensions.
func TestWritePrometheusLabeledHistogram(t *testing.T) {
	r := NewRegistry()
	r.Histogram(`span_duration_ms{name="round"}`, []float64{1}).Observe(0.5)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE span_duration_ms histogram",
		`span_duration_ms_bucket{name="round",le="1"} 1`,
		`span_duration_ms_bucket{name="round",le="+Inf"} 1`,
		`span_duration_ms_sum{name="round"} 0.5`,
		`span_duration_ms_count{name="round"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestWriteJSONSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("runs_total").Add(2)
	r.Gauge("depth").Set(1.5)
	h := r.Histogram("lat_ms", []float64{10, 20})
	for i := 1; i <= 10; i++ {
		h.Observe(float64(i)) // all in the first bucket
	}

	var buf bytes.Buffer
	if err := WriteJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	var snap map[string]struct {
		Type    string   `json:"type"`
		Value   *float64 `json:"value"`
		Sum     *float64 `json:"sum"`
		Count   *int64   `json:"count"`
		Buckets []struct {
			LE    string `json:"le"`
			Count int64  `json:"count"`
		} `json:"buckets"`
		Quantiles map[string]float64 `json:"quantiles"`
	}
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, buf.String())
	}
	if m := snap["runs_total"]; m.Type != "counter" || m.Value == nil || *m.Value != 2 {
		t.Fatalf("runs_total = %+v", m)
	}
	if m := snap["depth"]; m.Type != "gauge" || m.Value == nil || *m.Value != 1.5 {
		t.Fatalf("depth = %+v", m)
	}
	hm := snap["lat_ms"]
	if hm.Type != "histogram" || hm.Count == nil || *hm.Count != 10 {
		t.Fatalf("lat_ms = %+v", hm)
	}
	if len(hm.Buckets) != 3 || hm.Buckets[0].Count != 10 || hm.Buckets[2].LE != "+Inf" {
		t.Fatalf("lat_ms buckets = %+v", hm.Buckets)
	}
	// Uniform mass in (0,10]: the interpolated median is 5.
	if p50 := hm.Quantiles["p50"]; p50 != 5 {
		t.Fatalf("p50 = %g, want 5", p50)
	}
}
