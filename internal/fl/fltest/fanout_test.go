package fltest

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/fl"
	"repro/internal/quant"
	"repro/internal/rng"
	"repro/internal/sched"
)

// TestFanOutAllocations is the allocation guard of the one index
// fan-out, at two processors: sched.For with two workers, and a warm
// fl.Fold block of three members (one For over its lanes), each allocate
// at most two objects per call — For's shared state and the goroutine it
// starts. A Fold allocates nothing else once warm.
func TestFanOutAllocations(t *testing.T) {
	var out [8]int
	set := func(i int) { out[i] = i }
	forAllocs := fanOutAllocs(t, 5000, func() { sched.For(2, len(out), set) })

	prob := ToyProblemClients(1, 3)
	cfg := ToyConfig()
	f := fl.Fold{Cohort: fl.Cohort{Clients: prob.Fed.Areas[0].Clients}}
	f.Begin(&cfg, prob, fl.NewModelPool(prob.Model), quant.Config{})
	d := prob.Model.Dim()
	w, chk := make([]float64, d), make([]float64, d)
	streams := *rng.New(2)
	foldAllocs := fanOutAllocs(t, 5000, func() {
		f.Block(w, streams, 1, nil)
		f.Finish(w, chk)
	})

	t.Logf("sched.For: %.4f, Fold block: %.4f objects per call", forAllocs, foldAllocs)
	// A P keeps up to 64 exited goroutine descriptors to itself, so the
	// other P makes new ones until they spill to the shared list: a
	// bounded few dozen objects over the whole measurement, where one
	// object per call would read 3.
	const limit = 2.05
	if forAllocs > limit {
		t.Errorf("sched.For with two workers allocates %.4f objects per call, want <= 2", forAllocs)
	}
	if foldAllocs > limit {
		t.Errorf("a warm 3-member Fold block allocates %.4f objects per call, want <= 2", foldAllocs)
	}
}

// fanOutAllocs returns the heap objects one call of f allocates at two
// processors, averaged over runs calls after as many warm-up calls:
// testing.AllocsPerRun holds the process to one P, so it never sees a
// goroutine a fan-out starts. The collector is paused so sync.Pool hands
// back what was put; under the race detector, which drops pooled items
// at random, the test is skipped.
func fanOutAllocs(t testing.TB, runs int, f func()) float64 {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var mallocs uint64
	WithProcs(2, func() {
		for i := 0; i < runs; i++ {
			f()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		mallocs = after.Mallocs - before.Mallocs
	})
	return float64(mallocs) / float64(runs)
}
