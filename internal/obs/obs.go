// Package obs is the runtime observability subsystem: a typed
// counter/gauge/histogram registry with an atomic hot path, a lightweight
// span API writing a JSONL trace journal, Prometheus-text and JSON
// exporters, and an event hook (Sink) through which the training engines
// publish round lifecycle events without importing any exporter.
//
// Observability is off by default: the global hub is nil, every helper
// below reduces to one atomic pointer load and a branch, and instrumented
// code allocates nothing — trajectories stay bitwise-identical to the
// uninstrumented build. Enable it by installing a hub:
//
//	hub := obs.New()
//	hub.SetTracer(obs.NewTracer(traceFile))
//	prev := obs.SetGlobal(hub)
//	defer obs.SetGlobal(prev)
//
// The package is dependency-free (stdlib only) and safe for concurrent
// use throughout.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span or event. Values are
// restricted to JSON-friendly scalars by the constructors below.
type Attr struct {
	Key string
	Val any
}

// Str builds a string attribute.
func Str(k, v string) Attr { return Attr{Key: k, Val: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Val: v} }

// RoundEvent describes one engine round's lifecycle. Only fields that
// are a pure function of (problem, config, seed) appear here, so the
// event sequence of a run is deterministic and checkpoint/resume replays
// it exactly (asserted in internal/core tests).
type RoundEvent struct {
	// Algorithm is the engine's result name (e.g. "HierMinimax",
	// "HierMinimax/simnet", "FedAvg").
	Algorithm string
	// Round is the zero-based round index.
	Round int
}

// Sink receives round lifecycle events from the engines. Implementations
// must be safe for concurrent use and must not block: they run on the
// training goroutine.
type Sink interface {
	RoundStart(RoundEvent)
	RoundEnd(RoundEvent)
}

// Hub bundles a metric registry, an optional tracer, and the fan-out
// list of sinks. A nil *Hub is valid and inert everywhere.
type Hub struct {
	reg    *Registry
	tracer atomic.Pointer[Tracer]
	now    func() time.Time

	mu    sync.RWMutex
	sinks []Sink
}

// New returns a hub with a fresh registry, no tracer and no sinks.
func New() *Hub {
	return &Hub{reg: NewRegistry(), now: time.Now}
}

// Registry returns the hub's metric registry.
func (h *Hub) Registry() *Registry { return h.reg }

// SetTracer installs (or removes, with nil) the trace journal writer.
func (h *Hub) SetTracer(t *Tracer) { h.tracer.Store(t) }

// Tracer returns the installed tracer, or nil.
func (h *Hub) Tracer() *Tracer { return h.tracer.Load() }

// AddSink registers a lifecycle event sink.
func (h *Hub) AddSink(s Sink) {
	h.mu.Lock()
	h.sinks = append(h.sinks, s)
	h.mu.Unlock()
}

// RoundStart publishes a round-start event to every sink.
func (h *Hub) RoundStart(ev RoundEvent) {
	h.mu.RLock()
	for _, s := range h.sinks {
		s.RoundStart(ev)
	}
	h.mu.RUnlock()
}

// RoundEnd publishes a round-end event to every sink.
func (h *Hub) RoundEnd(ev RoundEvent) {
	h.mu.RLock()
	for _, s := range h.sinks {
		s.RoundEnd(ev)
	}
	h.mu.RUnlock()
}

// Span is an in-flight timed operation. The zero value is inert: End on
// a span from a disabled hub does nothing and costs one branch.
type Span struct {
	h     *Hub
	name  string
	attrs []Attr
	start time.Time
}

// Start opens a span. Ending it writes one JSONL record to the hub's
// tracer (if any) and observes the duration in the histogram
// `span_duration_ms{name="<name>"}`.
func (h *Hub) Start(name string, attrs ...Attr) Span {
	if h == nil {
		return Span{}
	}
	return Span{h: h, name: name, attrs: attrs, start: h.now()}
}

// End closes the span and returns its duration (0 when inert).
func (s Span) End() time.Duration {
	if s.h == nil {
		return 0
	}
	d := s.h.now().Sub(s.start)
	s.h.reg.Histogram(`span_duration_ms{name="`+s.name+`"}`, nil).
		Observe(float64(d) / float64(time.Millisecond))
	if t := s.h.Tracer(); t != nil {
		t.Span(s.name, s.start, d, s.attrs...)
	}
	return d
}

// global is the process-wide hub; nil means observability is disabled.
var global atomic.Pointer[Hub]

// SetGlobal installs h as the process-wide hub (nil disables) and
// returns the previous hub so callers can restore it.
func SetGlobal(h *Hub) *Hub {
	return global.Swap(h)
}

// Get returns the process-wide hub, or nil when observability is off.
// The instrumentation idiom is
//
//	if h := obs.Get(); h != nil { ... }
//
// so the disabled path is a single atomic load.
func Get() *Hub { return global.Load() }

// Enabled reports whether a global hub is installed.
func Enabled() bool { return Get() != nil }

// Start opens a span on the global hub (inert when disabled).
func Start(name string, attrs ...Attr) Span { return Get().Start(name, attrs...) }

// Now returns the hub clock's current time, or the zero time when
// observability is disabled, so the disabled path never reads the clock.
func Now() time.Time {
	if h := Get(); h != nil {
		return h.now()
	}
	return time.Time{}
}
