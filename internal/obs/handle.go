package obs

import "sync/atomic"

// counterBinding pairs a resolved counter with the hub it was resolved
// against, so a handle can detect hub swaps with one pointer compare.
type counterBinding struct {
	hub *Hub
	ctr *Counter
}

// CounterHandle caches the registry resolution of a named counter so hot
// paths (per-step kernels, per-round loops) pay one atomic load instead
// of a read-locked map lookup per increment. Handles are declared once
// at package scope with NewCounterHandle; they are safe for concurrent
// use and transparently re-resolve when the global hub is swapped.
type CounterHandle struct {
	name string
	b    atomic.Pointer[counterBinding]
}

// NewCounterHandle returns a handle for the named global counter.
func NewCounterHandle(name string) *CounterHandle {
	return &CounterHandle{name: name}
}

// Add increments the counter by delta (no-op when observability is off).
func (h *CounterHandle) Add(delta int64) {
	g := Get()
	if g == nil {
		return
	}
	b := h.b.Load()
	if b == nil || b.hub != g {
		b = &counterBinding{hub: g, ctr: g.Registry().Counter(h.name)}
		h.b.Store(b)
	}
	b.ctr.Add(delta)
}

// Inc increments the counter by one.
func (h *CounterHandle) Inc() { h.Add(1) }

// gaugeBinding pairs a resolved gauge with its hub.
type gaugeBinding struct {
	hub *Hub
	g   *Gauge
}

// GaugeHandle is CounterHandle's gauge counterpart.
type GaugeHandle struct {
	name string
	b    atomic.Pointer[gaugeBinding]
}

// NewGaugeHandle returns a handle for the named global gauge.
func NewGaugeHandle(name string) *GaugeHandle {
	return &GaugeHandle{name: name}
}

// resolve returns the gauge on the current hub, or nil when disabled.
func (h *GaugeHandle) resolve() *Gauge {
	g := Get()
	if g == nil {
		return nil
	}
	b := h.b.Load()
	if b == nil || b.hub != g {
		b = &gaugeBinding{hub: g, g: g.Registry().Gauge(h.name)}
		h.b.Store(b)
	}
	return b.g
}

// Set stores v in the gauge (no-op when observability is off).
func (h *GaugeHandle) Set(v float64) {
	if g := h.resolve(); g != nil {
		g.Set(v)
	}
}
