package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Tracer writes a JSONL trace journal: one JSON object per completed
// span. Timestamps are microseconds relative to the tracer's start so
// journals diff cleanly across runs.
//
// Journal schema:
//
//	{"type":"span","name":"round","t_us":120,"dur_us":950,"attrs":{"algorithm":"HierMinimax","round":3}}
//
// Writes are serialized by an internal mutex; a Tracer may be shared by
// every goroutine of a run.
type Tracer struct {
	mu    sync.Mutex
	w     io.Writer
	enc   *json.Encoder
	epoch time.Time
	now   func() time.Time
}

// traceRecord is the wire form of one journal line.
type traceRecord struct {
	Type  string         `json:"type"`
	Name  string         `json:"name"`
	TUs   int64          `json:"t_us"`
	DurUs int64          `json:"dur_us,omitempty"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

// NewTracer returns a tracer journaling to w. The caller owns w and
// closes it after the run (spans in flight at close are lost, as in any
// crash-truncated journal — every complete line remains valid JSON).
func NewTracer(w io.Writer) *Tracer {
	t := &Tracer{w: w, enc: json.NewEncoder(w), now: time.Now}
	t.epoch = t.now()
	return t
}

// Span journals one completed span.
func (t *Tracer) Span(name string, start time.Time, d time.Duration, attrs ...Attr) {
	t.emit(traceRecord{
		Type:  "span",
		Name:  name,
		TUs:   start.Sub(t.epoch).Microseconds(),
		DurUs: d.Microseconds(),
		Attrs: attrMap(attrs),
	})
}

func (t *Tracer) emit(rec traceRecord) {
	t.mu.Lock()
	// Encode errors (full disk, closed file) are swallowed: telemetry
	// must never fail a training run.
	_ = t.enc.Encode(rec)
	t.mu.Unlock()
}

func attrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Val
	}
	return m
}

// TraceLine is the parsed form of one journal line, for consumers and
// tests reading a journal back.
type TraceLine struct {
	Type  string         `json:"type"`
	Name  string         `json:"name"`
	TUs   int64          `json:"t_us"`
	DurUs int64          `json:"dur_us"`
	Attrs map[string]any `json:"attrs"`
}

// ReadTrace parses a JSONL journal produced by a Tracer.
func ReadTrace(r io.Reader) ([]TraceLine, error) {
	var out []TraceLine
	dec := json.NewDecoder(r)
	for {
		var ln TraceLine
		if err := dec.Decode(&ln); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, err
		}
		out = append(out, ln)
	}
}
