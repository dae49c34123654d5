package obs

import (
	"bytes"
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

	lines, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
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
	// Every line is standalone JSON (JSONL contract).
	for _, ln := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if !strings.HasPrefix(ln, "{") || !strings.HasSuffix(ln, "}") {
			t.Fatalf("journal line is not a JSON object: %q", ln)
		}
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

func TestCollectorSinkOrder(t *testing.T) {
	hub := New()
	var c CollectorSink
	hub.AddSink(&c)
	hub.RoundStart(RoundEvent{Algorithm: "A", Round: 0})
	hub.RoundEnd(RoundEvent{Algorithm: "A", Round: 0})
	hub.RoundStart(RoundEvent{Algorithm: "A", Round: 1})
	hub.RoundEnd(RoundEvent{Algorithm: "A", Round: 1})
	got := c.Events()
	want := []string{"start A 0", "end A 0", "start A 1", "end A 1"}
	if len(got) != len(want) {
		t.Fatalf("events = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("events[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}
