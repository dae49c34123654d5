package obs

import "testing"

func TestCounterHandleBindsAndRebinds(t *testing.T) {
	prev := SetGlobal(nil)
	defer SetGlobal(prev)

	h := NewCounterHandle("handle_test_total")
	h.Add(5) // disabled: must be a silent no-op

	hub1 := New()
	SetGlobal(hub1)
	h.Add(3)
	h.Inc()
	if v := hub1.Registry().Counter("handle_test_total").Value(); v != 4 {
		t.Fatalf("hub1 counter = %d, want 4", v)
	}

	// Swapping the hub must transparently re-resolve the binding.
	hub2 := New()
	SetGlobal(hub2)
	h.Add(7)
	if v := hub2.Registry().Counter("handle_test_total").Value(); v != 7 {
		t.Fatalf("hub2 counter = %d, want 7", v)
	}
	if v := hub1.Registry().Counter("handle_test_total").Value(); v != 4 {
		t.Fatalf("hub1 counter changed to %d after swap", v)
	}

	SetGlobal(nil)
	h.Add(100) // disabled again: no panic, no effect
}

func TestGaugeHandleBindsAndRebinds(t *testing.T) {
	prev := SetGlobal(nil)
	defer SetGlobal(prev)

	h := NewGaugeHandle("handle_test_gauge")
	h.Set(1.5) // disabled: no-op

	hub1 := New()
	SetGlobal(hub1)
	h.Set(2.5)
	if v := hub1.Registry().Gauge("handle_test_gauge").Value(); v != 2.5 {
		t.Fatalf("hub1 gauge = %v, want 2.5", v)
	}

	hub2 := New()
	SetGlobal(hub2)
	h.Set(4.25)
	if v := hub2.Registry().Gauge("handle_test_gauge").Value(); v != 4.25 {
		t.Fatalf("hub2 gauge = %v, want 4.25", v)
	}
}
