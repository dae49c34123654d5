package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one timed interval of a traced invocation. Spans form the trees
// workload > setup|run|leg > round and probe > call; every span of one
// invocation carries the same Run identifier.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // Unix nanoseconds
	End    int64  `json:"end_ns"`
	Count  int    `json:"count,omitempty"` // calls covered by a probe's call span
}

// recorder keeps spans in memory until the invocation ends.
type recorder struct {
	mu    sync.Mutex
	run   string
	spans []span
}

func newRecorder(workload string, seed uint64) *recorder {
	return &recorder{run: fmt.Sprintf("%s-seed%d-%d", workload, seed, time.Now().UnixNano())}
}

// add records a finished span and returns its id.
func (r *recorder) add(parent int, name string, start, end time.Time, count int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Run: r.run, Name: name,
		Start: start.UnixNano(), End: end.UnixNano(), Count: count})
	return id
}

// open reserves a span whose end is set by the returned function, so
// children recorded meanwhile can name it as their parent.
func (r *recorder) open(parent int, name string) (id int, done func()) {
	id = r.add(parent, name, time.Now(), time.Time{}, 0)
	return id, func() {
		end := time.Now().UnixNano()
		r.mu.Lock()
		r.spans[id-1].End = end
		r.mu.Unlock()
	}
}

// write stores the spans as JSON lines in an existing directory.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	spans := slices.Clone(r.spans)
	r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // the success path checks Close below
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// roundSink is the benchmark's own obs.Sink: it timestamps the round
// boundaries the engines publish, from outside the engines. Rounds of
// concurrent runs (the sweep's jobs) are told apart by algorithm name.
type roundSink struct {
	rec    *recorder
	parent int

	mu      sync.Mutex
	started map[string]time.Time
	ended   map[string]time.Time
	roundMs []float64
	gapUs   []float64 // RoundEnd to the same run's next RoundStart
}

func (s *roundSink) RoundStart(ev obs.RoundEvent) {
	now := time.Now()
	s.mu.Lock()
	if end, ok := s.ended[ev.Algorithm]; ok {
		s.gapUs = append(s.gapUs, float64(now.Sub(end))/1e3)
	}
	s.started[ev.Algorithm] = now
	s.mu.Unlock()
}

func (s *roundSink) RoundEnd(ev obs.RoundEvent) {
	now := time.Now()
	s.mu.Lock()
	start := s.started[ev.Algorithm]
	s.ended[ev.Algorithm] = now
	s.roundMs = append(s.roundMs, float64(now.Sub(start))/1e6)
	s.mu.Unlock()
	s.rec.add(s.parent, "round", start, now, 0)
}

// traced is what one run under the hub yields besides its outcome.
type traced struct {
	roundMs, gapUs []float64
	wall           float64 // seconds, whole run
}

// tracedRun installs a hub carrying a roundSink, runs fn under a span
// named name, and removes the hub again.
func tracedRun(rec *recorder, parent int, name string, fn func() error) (traced, error) {
	id, done := rec.open(parent, name)
	sink := &roundSink{rec: rec, parent: id, started: map[string]time.Time{}, ended: map[string]time.Time{}}
	hub := obs.New()
	hub.AddSink(sink)
	prev := obs.SetGlobal(hub)
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0).Seconds()
	obs.SetGlobal(prev)
	done()
	return traced{roundMs: sink.roundMs, gapUs: sink.gapUs, wall: wall}, err
}
