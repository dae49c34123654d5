// Package sched holds the repository's one index fan-out and the
// run-level scheduler built on it. For runs independent indices on a
// bounded set of goroutines: every round's edge slots, Phase-2 loss
// estimates and a fold's client lanes go through it. Pool and Map run
// independent FL training runs (a sweep) and commit their results in
// submission order, so every sweep artifact (CSV bytes, manifest JSON,
// rendered tables) is bitwise identical to the sequential execution
// regardless of worker count.
//
// Determinism contract (DESIGN.md §11):
//
//   - Work is pure: fn(i) and job(i) derive everything — workload,
//     config, randomness — from the index and the values captured before
//     the call, never from scheduler state, worker identity, or
//     wall-clock time, and write only index-i outputs. Shared inputs
//     (cached datasets) are read-only.
//   - Commits are ordered: Map delivers results[0..n-1] in submission
//     order whatever order the workers finished in, and the first error
//     in submission order wins — exactly the error a sequential loop
//     would have returned. For's callers fold index outputs in index
//     order after it returns.
//   - The scheduler adds no randomness: worker count changes only the
//     interleaving of independent work, which by the purity rule cannot
//     be observed.
//
// Map's scheduling is bounded work stealing: submission deals jobs
// round-robin onto per-worker queues; a worker pops its own queue LIFO
// (freshest spec, warmest caches) and steals the oldest job of a
// sibling when its own queue drains. Jobs here are whole training runs
// (milliseconds to minutes), so queue contention is irrelevant and a
// single lock over the queues is simpler and plenty.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Cached metric handles (see internal/obs): sweep_runs_total counts
// committed runs, sweep_runs_failed_total the subset that returned
// errors, and sweep_runs_per_sec tracks the pool's lifetime throughput.
var (
	runsTotal  = obs.NewCounterHandle("sweep_runs_total")
	runsFailed = obs.NewCounterHandle("sweep_runs_failed_total")
	runsPerSec = obs.NewGaugeHandle("sweep_runs_per_sec")
)

// For runs fn(i) for every i in [0, n) on at most workers goroutines
// (workers <= 0 means GOMAXPROCS) and returns when every call has. The
// caller is worker 0: with one worker fn runs in index order on the
// caller, otherwise workers-1 more goroutines join it and each pulls the
// next index from a shared counter. fn must confine its writes to
// index-i outputs (the package contract), so every worker count yields
// the same results.
func For(workers, n int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	r := &forRun{n: n, fn: fn}
	r.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go r.spawned()
	}
	r.pull()
	r.wg.Wait()
}

// forRun is the shared state of one multi-worker For call.
type forRun struct {
	next atomic.Int64
	wg   sync.WaitGroup
	n    int
	fn   func(i int)
}

// pull runs indices off the shared counter until none is left.
func (r *forRun) pull() {
	for i := int(r.next.Add(1)) - 1; i < r.n; i = int(r.next.Add(1)) - 1 {
		r.fn(i)
	}
}

// spawned is a worker For starts: it pulls, then reports to For's wait.
func (r *forRun) spawned() {
	defer r.wg.Done()
	r.pull()
}

// Pool is a bounded scheduler for independent runs. A nil *Pool is valid
// and executes everything inline on the caller's goroutine (one worker),
// so drivers accept a pool without nil checks.
type Pool struct {
	workers int

	mu          sync.Mutex
	progress    func(done, total int)
	done, total int
	started     time.Time
}

// New returns a pool with the given worker bound; workers <= 0 means
// GOMAXPROCS. The pool spawns goroutines only while a Map call is in
// flight — an idle pool holds no resources.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers, started: time.Now()}
}

// Workers returns the worker bound (1 for a nil pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// SetProgress installs a callback invoked (serialized) after every
// completed job with the pool-lifetime done/total run counts — the hook
// behind cmd/experiments' live progress line. The callback must be
// cheap; it runs with the pool lock held.
func (p *Pool) SetProgress(fn func(done, total int)) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.progress = fn
	p.mu.Unlock()
}

// Done returns the pool-lifetime (completed, submitted) run counts.
func (p *Pool) Done() (done, total int) {
	if p == nil {
		return 0, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.done, p.total
}

// submit accounts n upcoming jobs.
func (p *Pool) submit(n int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.total += n
	p.mu.Unlock()
}

// complete accounts one finished job and fires the progress callback.
func (p *Pool) complete(failed bool) {
	runsTotal.Inc()
	if failed {
		runsFailed.Inc()
	}
	if p == nil {
		return
	}
	p.mu.Lock()
	p.done++
	if wall := time.Since(p.started).Seconds(); wall > 0 {
		runsPerSec.Set(float64(p.done) / wall)
	}
	if p.progress != nil {
		p.progress(p.done, p.total)
	}
	p.mu.Unlock()
}

// queues is the work-stealing state of one Map call: one LIFO queue per
// worker under a single lock (jobs are whole training runs, so the lock
// is cold).
type queues struct {
	mu sync.Mutex
	q  [][]int
}

// next pops the freshest job of worker self's own queue, or steals the
// oldest job of the nearest non-empty sibling queue.
func (qs *queues) next(self int) (int, bool) {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	if d := qs.q[self]; len(d) > 0 {
		i := d[len(d)-1]
		qs.q[self] = d[:len(d)-1]
		return i, true
	}
	for off := 1; off < len(qs.q); off++ {
		v := (self + off) % len(qs.q)
		if d := qs.q[v]; len(d) > 0 {
			i := d[0]
			qs.q[v] = d[1:]
			return i, true
		}
	}
	return 0, false
}

// Map runs job(0..n-1) on the pool and returns the n results committed
// in submission order. All jobs run even if one fails; the returned
// error is the first error in submission order (the one a sequential
// loop would have surfaced). job must be pure in the package-comment
// sense; name labels the per-job obs spans.
func Map[T any](p *Pool, name string, n int, job func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	errs := make([]error, n)
	if n <= 0 {
		return results, nil
	}
	p.submit(n)

	runOne := func(i int) {
		sp := obs.Start("sweep-job", obs.Str("sweep", name), obs.Int("job", i))
		results[i], errs[i] = job(i)
		sp.End()
		p.complete(errs[i] != nil)
	}

	workers := min(p.Workers(), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			runOne(i)
		}
	} else {
		qs := &queues{q: make([][]int, workers)}
		for i := 0; i < n; i++ {
			w := i % workers
			qs.q[w] = append(qs.q[w], i)
		}
		For(workers, workers, func(self int) {
			for i, ok := qs.next(self); ok; i, ok = qs.next(self) {
				runOne(i)
			}
		})
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			return results, errs[i]
		}
	}
	return results, nil
}
