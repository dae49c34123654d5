package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// fakeClock is a deterministic time source advancing 1ms per reading.
type fakeClock struct {
	t time.Time
}

func (f *fakeClock) now() time.Time {
	f.t = f.t.Add(time.Millisecond)
	return f.t
}

// SetClock overrides the hub's time source.
func (h *Hub) SetClock(now func() time.Time) { h.now = now }

// SetClock overrides the tracer's time source and resets its epoch.
func (t *Tracer) SetClock(now func() time.Time) {
	t.mu.Lock()
	t.now = now
	t.epoch = now()
	t.mu.Unlock()
}

func TestTracerJournalSchema(t *testing.T) {
	var buf bytes.Buffer
	clk := &fakeClock{t: time.Unix(1000, 0)}
	tr := NewTracer(&buf)
	tr.SetClock(clk.now)

	hub := New()
	hub.SetClock(clk.now)
	hub.SetTracer(tr)

	sp := hub.Start("round", Str("algorithm", "HierMinimax"), Int("round", 0))
	sp.End()
	hub.Start("phase").End()

	// Every line is one standalone JSON object (JSONL contract).
	type line struct {
		Type, Name string
		DurUs      int64 `json:"dur_us"`
		Attrs      map[string]any
	}
	var lines []line
	for _, raw := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if !strings.HasPrefix(raw, "{") || !strings.HasSuffix(raw, "}") {
			t.Fatalf("journal line is not a JSON object: %q", raw)
		}
		var ln line
		if err := json.Unmarshal([]byte(raw), &ln); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, ln)
	}
	if len(lines) != 2 {
		t.Fatalf("journal has %d lines, want 2:\n%s", len(lines), buf.String())
	}
	span := lines[0]
	if span.Type != "span" || span.Name != "round" {
		t.Fatalf("first line = %+v, want round span", span)
	}
	if span.DurUs != 1000 { // fake clock: exactly one 1ms tick inside the span
		t.Fatalf("span duration = %dus, want 1000", span.DurUs)
	}
	if span.Attrs["algorithm"] != "HierMinimax" || span.Attrs["round"] != float64(0) {
		t.Fatalf("span attrs = %v", span.Attrs)
	}
	if ph := lines[1]; ph.Type != "span" || ph.Name != "phase" || ph.Attrs != nil {
		t.Fatalf("second line = %+v, want a phase span without attrs", ph)
	}
}

func TestSpanFeedsDurationHistogram(t *testing.T) {
	hub := New()
	sp := hub.Start("work")
	time.Sleep(time.Millisecond)
	if d := sp.End(); d <= 0 {
		t.Fatalf("span duration = %v, want > 0", d)
	}
	h := hub.Registry().Histogram(`span_duration_ms{name="work"}`, nil)
	if h.Count() != 1 {
		t.Fatalf("span histogram count = %d, want 1", h.Count())
	}
	if h.Sum() <= 0 {
		t.Fatalf("span histogram sum = %g, want > 0", h.Sum())
	}
}
