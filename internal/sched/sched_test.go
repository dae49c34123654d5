package sched

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// goid returns the calling goroutine's id, read from its stack header.
func goid() int {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, _ := strconv.Atoi(string(b[:bytes.IndexByte(b, ' ')]))
	return id
}

// TestFor: every index in [0, n) runs exactly once and n <= 0 never
// calls fn; no more than min(workers, n) goroutines run fn, and never
// more at once (workers <= 0 means GOMAXPROCS, held at 4 here so the
// multi-worker path runs on any machine); with one worker, by request or
// by the bound, fn runs in index order on the calling goroutine.
func TestFor(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, tc := range []struct {
		name       string
		workers, n int
		bound      int
	}{
		{"many-indices", 4, 10007, 4},
		{"default-width", 0, 64, 4},
		{"more-workers-than-indices", 74, 64, 64},
		{"three-workers", 3, 64, 3},
		{"one-worker", 1, 20, 1},
		{"one-index", 8, 1, 1},
		{"empty", 4, 0, 0},
		{"negative", 4, -3, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hits := make([]atomic.Int32, max(tc.n, 0))
			var calls, cur, peak atomic.Int32
			var mu sync.Mutex
			var order []int
			gids := map[int]bool{}
			caller := goid()
			For(tc.workers, tc.n, func(i int) {
				c := cur.Add(1)
				for p := peak.Load(); c > p && !peak.CompareAndSwap(p, c); p = peak.Load() {
				}
				calls.Add(1)
				hits[i].Add(1)
				mu.Lock()
				order = append(order, i)
				gids[goid()] = true
				mu.Unlock()
				cur.Add(-1)
			})
			if got := int(calls.Load()); got != max(tc.n, 0) {
				t.Fatalf("fn ran %d times, want %d", got, max(tc.n, 0))
			}
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("index %d ran %d times", i, got)
				}
			}
			if int(peak.Load()) > tc.bound || len(gids) > tc.bound {
				t.Fatalf("%d goroutines ran fn, %d at once; bound %d", len(gids), peak.Load(), tc.bound)
			}
			if tc.bound == 1 {
				for i, v := range order {
					if v != i {
						t.Fatalf("one worker ran out of order: %v", order)
					}
				}
				if !gids[caller] {
					t.Fatal("one worker did not run on the caller")
				}
			}
		})
	}
}

// TestMapCommitsInSubmissionOrder: whatever the worker interleaving,
// results land at their submission index.
func TestMapCommitsInSubmissionOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 13} {
		p := New(workers)
		got, err := Map(p, "order", 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: results[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestMapNilPool: a nil *Pool is a valid single-worker inline executor.
func TestMapNilPool(t *testing.T) {
	var p *Pool
	if w := p.Workers(); w != 1 {
		t.Fatalf("nil pool Workers() = %d, want 1", w)
	}
	p.SetProgress(func(int, int) {}) // must not panic
	if d, n := p.Done(); d != 0 || n != 0 {
		t.Fatalf("nil pool Done() = %d/%d, want 0/0", d, n)
	}
	var order []int
	got, err := Map(p, "nil-pool", 5, func(i int) (int, error) {
		order = append(order, i)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i || order[i] != i {
			t.Fatalf("inline execution out of order: results=%v order=%v", got, order)
		}
	}
}

// TestMapFirstErrorInSubmissionOrder: the error surfaced is the one a
// sequential loop would have hit first, and every job still runs.
func TestMapFirstErrorInSubmissionOrder(t *testing.T) {
	errA := errors.New("job 3 failed")
	for _, workers := range []int{1, 4} {
		p := New(workers)
		var ran atomic.Int64
		_, err := Map(p, "errors", 10, func(i int) (int, error) {
			ran.Add(1)
			if i == 7 {
				return 0, fmt.Errorf("job 7 failed")
			}
			if i == 3 {
				return 0, errA
			}
			return i, nil
		})
		if !errors.Is(err, errA) {
			t.Fatalf("workers=%d: got error %v, want first submission-order error %v", workers, err, errA)
		}
		if ran.Load() != 10 {
			t.Fatalf("workers=%d: %d jobs ran, want all 10 despite failures", workers, ran.Load())
		}
	}
}

// TestMapZeroJobs: an empty sweep is a no-op.
func TestMapZeroJobs(t *testing.T) {
	got, err := Map(New(4), "empty", 0, func(i int) (int, error) { return 0, errors.New("never") })
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v; want empty, nil", got, err)
	}
}

// TestMapRunsEveryJobOnce: no job is dropped or duplicated by the
// stealing queues.
func TestMapRunsEveryJobOnce(t *testing.T) {
	p := New(7)
	var mu sync.Mutex
	counts := make(map[int]int)
	_, err := Map(p, "once", 97, func(i int) (int, error) {
		mu.Lock()
		counts[i]++
		mu.Unlock()
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 97; i++ {
		if counts[i] != 1 {
			t.Fatalf("job %d ran %d times", i, counts[i])
		}
	}
}

// TestProgressCallback: the hook sees every completion and the final
// done/total match the pool counters.
func TestProgressCallback(t *testing.T) {
	p := New(3)
	var calls atomic.Int64
	var lastDone atomic.Int64
	p.SetProgress(func(done, total int) {
		calls.Add(1)
		lastDone.Store(int64(done))
		if total != 20 {
			t.Errorf("progress total = %d, want 20", total)
		}
	})
	if _, err := Map(p, "progress", 20, func(i int) (int, error) { return i, nil }); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 20 || lastDone.Load() != 20 {
		t.Fatalf("progress fired %d times (last done %d), want 20/20", calls.Load(), lastDone.Load())
	}
	if done, total := p.Done(); done != 20 || total != 20 {
		t.Fatalf("Done() = %d/%d, want 20/20", done, total)
	}
}

// TestNewDefaultsToGOMAXPROCS: workers <= 0 selects the machine width.
func TestNewDefaultsToGOMAXPROCS(t *testing.T) {
	if New(0).Workers() < 1 || New(-3).Workers() < 1 {
		t.Fatal("New(<=0) must still provide at least one worker")
	}
	if New(5).Workers() != 5 {
		t.Fatalf("New(5).Workers() = %d", New(5).Workers())
	}
}

// TestQueuesStealOldest: a sibling steals from the front (oldest) while
// the owner pops from the back (freshest).
func TestQueuesStealOldest(t *testing.T) {
	qs := &queues{q: [][]int{{0, 2, 4}, {}}}
	if i, ok := qs.next(1); !ok || i != 0 {
		t.Fatalf("steal got %d, want oldest job 0", i)
	}
	if i, ok := qs.next(0); !ok || i != 4 {
		t.Fatalf("own pop got %d, want freshest job 4", i)
	}
	if i, ok := qs.next(0); !ok || i != 2 {
		t.Fatalf("own pop got %d, want 2", i)
	}
	if _, ok := qs.next(0); ok {
		t.Fatal("queues should be drained")
	}
}
