package obs

import (
	"math"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("c_total") != c {
		t.Fatal("counter not memoized by name")
	}

	g := r.Gauge("g")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", got)
	}
	g.SetMax(1.0) // below current: no-op
	g.SetMax(7.25)
	if got := g.Value(); got != 7.25 {
		t.Fatalf("gauge high-water = %g, want 7.25", got)
	}
}

// Golden bucket assignment: the histogram must put v in the first bucket
// with bound >= v (Prometheus `le` semantics).
func TestHistogramBucketsGolden(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 2, 5, 10})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 10, 11, 100} {
		h.Observe(v)
	}
	want := []int64{2, 2, 1, 1, 2} // le=1, le=2, le=5, le=10, +Inf
	got := h.BucketCounts()
	if len(got) != len(want) {
		t.Fatalf("bucket count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket[%d] = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d, want 8", h.Count())
	}
	if math.Abs(h.Sum()-129.0) > 1e-12 {
		t.Fatalf("sum = %g, want 129", h.Sum())
	}
}

// Golden quantiles: uniform mass 0..100 in ten equal buckets makes the
// interpolated quantiles exact, so the estimates are checked to 1e-9.
func TestHistogramQuantileGolden(t *testing.T) {
	r := NewRegistry()
	bounds := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	h := r.Histogram("q", bounds)
	// 10 observations per bucket: v in (0,10], (10,20], ...
	for b := 0; b < 10; b++ {
		for i := 1; i <= 10; i++ {
			h.Observe(float64(b*10) + float64(i))
		}
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.0, 0}, {0.10, 10}, {0.25, 25}, {0.5, 50}, {0.90, 90}, {0.99, 99}, {1.0, 100},
	} {
		if got := h.Quantile(tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Fatalf("Quantile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("e", []float64{1, 2})
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty histogram quantile should be NaN")
	}
	h.Observe(100) // lands in +Inf bucket
	if got := h.Quantile(0.99); got != 2 {
		t.Fatalf("+Inf bucket quantile = %g, want clamp to 2", got)
	}
	if !math.IsNaN(h.Quantile(math.NaN())) {
		t.Fatal("NaN q should be NaN")
	}
}

// Concurrency: concurrent get-or-create and record on the same names
// must lose no updates (run under -race in CI).
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, per = 16, 1000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Counter("shared_total").Inc()
				r.Gauge("depth").SetMax(float64(w*per + i))
				r.Histogram("lat_ms", nil).Observe(float64(i % 7))
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared_total").Value(); got != workers*per {
		t.Fatalf("lost counter updates: %d, want %d", got, workers*per)
	}
	if got := r.Histogram("lat_ms", nil).Count(); got != workers*per {
		t.Fatalf("lost observations: %d, want %d", got, workers*per)
	}
	if got := r.Gauge("depth").Value(); got != workers*per-1 {
		t.Fatalf("high-water = %g, want %d", got, workers*per-1)
	}
	if n := len(r.Snapshot()); n != 3 {
		t.Fatalf("snapshot has %d instruments, want 3", n)
	}
}

func TestGlobalDisabledIsInert(t *testing.T) {
	if Enabled() {
		t.Fatal("global hub unexpectedly installed")
	}
	// All of these must be no-ops, not panics.
	ObserveSince("h_ms", Now())
	sp := Start("span")
	if d := sp.End(); d != 0 {
		t.Fatalf("inert span duration = %v, want 0", d)
	}

	hub := New()
	prev := SetGlobal(hub)
	defer SetGlobal(prev)
	ObserveSince("h_ms", Now())
	if got := hub.Registry().Histogram("h_ms", nil).Count(); got != 1 {
		t.Fatalf("enabled histogram count = %d, want 1", got)
	}
}
