package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
)

// cost is what one engine run consumed, read from outside the run.
type cost struct {
	wall, cpu      float64 // seconds; cpu is getrusage user+sys
	mallocs, bytes float64 // MemStats.Mallocs and TotalAlloc deltas
}

// options sizes one invocation following the protocol in README.md; quick
// shrinks everything to one tiny run of each kind for the unit-test pass.
type options struct {
	seed    uint64
	seconds float64 // measuring time of the long runs
	quick   bool
}

func (o options) rounds(w *workload) int {
	if o.quick {
		return 5
	}
	return w.rounds
}

// setupRuns is the least number of complete Rounds=1 runs behind setup_s,
// longRuns the number of long runs made even when seconds is already spent.
func (o options) setupRuns() int {
	if o.quick {
		return 1
	}
	return 11
}

func (o options) longRuns() int {
	if o.quick {
		return 1
	}
	return 3
}

// tally counts operations (engine runs) and the ones that failed. Only
// fail may be called off the driver goroutine (a listener reporting a
// protocol error does).
type tally struct {
	attempted int

	mu     sync.Mutex
	failed int
	errs   []string
}

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failed++
	t.errs = append(t.errs, fmt.Sprintf(format, args...))
}

// timedRun makes one complete run of the workload with the obs hub as the
// caller left it, reading the clocks and allocator counters outside it.
func timedRun(w *workload, rounds int, t *tally) (cost, outcome, bool) {
	t.attempted++
	runtime.GC() // every run starts from a collected heap, like a fresh process
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	t0 := time.Now()
	out, err := w.run(rounds)
	wall := time.Since(t0).Seconds()
	c1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.fail("%s run of %d rounds: %v", w.name, rounds, err)
		return cost{}, outcome{}, false
	}
	return cost{
		wall:    wall,
		cpu:     c1 - c0,
		mallocs: float64(m1.Mallocs - m0.Mallocs),
		bytes:   float64(m1.TotalAlloc - m0.TotalAlloc),
	}, out, true
}

// steady holds the per-round steady-state figures of the long runs: for
// each run (X(K) - X(setup)) / (K - 1), then the median over runs.
type steady struct {
	setup          cost // medians over the Rounds=1 runs
	setupRuns      int
	roundMs        []float64 // one slope per long run
	cpuMs          []float64
	allocs, allocK []float64
	last           outcome
}

// measure runs the timed protocol: one untimed warm-up, the setup runs,
// then long runs until the measuring time is spent. All long runs share
// one spec, so their outputs must hash identically.
func measure(w *workload, o options, t *tally) (steady, bool) {
	var s steady
	k := o.rounds(w)
	warm := k / 4
	if warm < 1 {
		warm = 1
	}
	if _, _, ok := timedRun(w, warm, t); !ok {
		return s, false
	}

	// Set-up runs are short, so cheap ones are repeated beyond the minimum
	// for up to an eighth of the measuring time: setup_s is a median of many.
	var setups []cost
	for start := time.Now(); len(setups) < o.setupRuns() || (len(setups) < 8*o.setupRuns() && time.Since(start).Seconds() < o.seconds/8); {
		c, _, ok := timedRun(w, 1, t)
		if !ok {
			return s, false
		}
		setups = append(setups, c)
	}
	s.setup, s.setupRuns = medianCost(setups), len(setups)

	start := time.Now()
	for r := 0; r < o.longRuns() || time.Since(start).Seconds() < o.seconds; r++ {
		c, out, ok := timedRun(w, k, t)
		if !ok {
			return s, false
		}
		if r > 0 && out != s.last {
			t.fail("%s: long run %d differs from run %d of the same spec (hash %x vs %x)", w.name, r, r-1, out.hash, s.last.hash)
			return s, false
		}
		s.last = out
		s.roundMs = append(s.roundMs, slope(c.wall, s.setup.wall, k)*1e3)
		s.cpuMs = append(s.cpuMs, slope(c.cpu, s.setup.cpu, k)*1e3)
		s.allocs = append(s.allocs, slope(c.mallocs, s.setup.mallocs, k))
	}
	return s, true
}

// checkReference runs the workload's independent reference once, untimed,
// and requires the same output bits and the same ledger. A workload whose
// entry point hides the ledger takes the reference's.
func checkReference(w *workload, rounds int, got *outcome, t *tally) bool {
	if w.reference == nil {
		return true
	}
	t.attempted++
	ref, err := w.reference(rounds)
	if err != nil {
		t.fail("%s reference: %v", w.name, err)
		return false
	}
	if got.bytes == noBytes {
		got.bytes = ref.bytes
	}
	if ref.hash != got.hash || ref.bytes != got.bytes {
		t.fail("%s disagrees with its reference: hash %x vs %x, bytes %d vs %d", w.name, got.hash, ref.hash, got.bytes, ref.bytes)
		return false
	}
	return true
}

// timedMetrics is the untraced invocation: every end-to-end metric of one
// workload, measured with the obs hub nil.
func timedMetrics(w *workload, o options, t *tally) map[string]metric {
	if obs.Get() != nil {
		t.fail("obs hub installed during an end-to-end measurement")
		return nil
	}
	s, ok := measure(w, o, t)
	if !ok || !checkReference(w, o.rounds(w), &s.last, t) {
		return nil
	}
	k := float64(o.rounds(w))
	fmt.Fprintf(os.Stderr, "%s: K=%d, %d setup runs, %d long runs; round_ms median %.4f min %.4f max %.4f\n",
		w.name, o.rounds(w), s.setupRuns, len(s.roundMs), median(s.roundMs), slices.Min(s.roundMs), slices.Max(s.roundMs))
	fmt.Fprintf(os.Stderr, "%s: round_ms of each long run: %.4f\n", w.name, s.roundMs)
	return map[string]metric{
		"setup_s":              {s.setup.wall, "s"},
		"round_ms":             {median(s.roundMs), "ms"},
		"cpu_ms_per_round":     {median(s.cpuMs), "ms"},
		"allocs_per_round":     {median(s.allocs), "count"},
		"wire_bytes_per_round": {float64(s.last.bytes) / k, "bytes"},
		"peak_rss_mb":          {peakRSSMiB(), "MiB"},
	}
}

// slope is the steady-state cost per round of a K-round run whose
// Rounds=1 twin costs setup: the first round is paid inside setup.
func slope(total, setup float64, k int) float64 {
	if k < 2 {
		return total
	}
	return (total - setup) / float64(k-1)
}

func medianCost(cs []cost) cost {
	pick := func(f func(cost) float64) float64 {
		vs := make([]float64, len(cs))
		for i, c := range cs {
			vs[i] = f(c)
		}
		return median(vs)
	}
	return cost{
		wall:    pick(func(c cost) float64 { return c.wall }),
		cpu:     pick(func(c cost) float64 { return c.cpu }),
		mallocs: pick(func(c cost) float64 { return c.mallocs }),
		bytes:   pick(func(c cost) float64 { return c.bytes }),
	}
}

func sorted(vs []float64) []float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	return s
}

// median of vs; NaN for an empty slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := sorted(vs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the highest whole percentile p <= want that
// still has at least ten samples beyond it, and its value; with fewer
// than eleven samples it falls back to the maximum (p = 100).
func tailPercentile(vs []float64, want int) (p int, v float64) {
	s := sorted(vs)
	n := len(s)
	for p = want; p > 50; p-- {
		idx := (p*n+99)/100 - 1 // ceil(p*n/100) - 1
		if n-1-idx >= 10 {
			return p, s[idx]
		}
	}
	return 100, s[n-1]
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB is the process's resident high-water mark (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}
