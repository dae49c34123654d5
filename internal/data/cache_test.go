package data

import (
	"strings"
	"sync"
	"testing"
)

// CacheReset drops every cached corpus and zeroes the counters.
func CacheReset() {
	cache.mu.Lock()
	cache.entries = map[string]*cacheEntry{}
	cache.hits, cache.misses = 0, 0
	cache.mu.Unlock()
}

// withFreshCache isolates a test from the process-wide cache (and from
// the other tests in this file).
func withFreshCache(t *testing.T) {
	t.Helper()
	CacheReset()
	t.Cleanup(CacheReset)
}

// TestGenerateSharedSameKeyAliases: two same-key requests return views
// over the very same backing arrays — the corpus is built once.
func TestGenerateSharedSameKeyAliases(t *testing.T) {
	withFreshCache(t)
	p := EMNISTDigitsLike()
	p.Dim = 16
	train1, test1 := p.GenerateShared(20, 10, 42)
	train2, test2 := p.GenerateShared(20, 10, 42)
	if &train1.Xs[0][0] != &train2.Xs[0][0] || &test1.Xs[0][0] != &test2.Xs[0][0] {
		t.Fatal("same-key GenerateShared must alias the same backing arrays")
	}
	if hits, misses := CacheStats(); hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}
}

// TestGenerateSharedMatchesGenerate: the cached view is the identical
// corpus the uncached generator produces.
func TestGenerateSharedMatchesGenerate(t *testing.T) {
	withFreshCache(t)
	p := MNISTLike()
	p.Dim = 12
	train, test := p.GenerateShared(15, 5, 7)
	wantTrain, wantTest := p.Generate(15, 5, 7)
	for i := range wantTrain.Xs {
		for j := range wantTrain.Xs[i] {
			if train.Xs[i][j] != wantTrain.Xs[i][j] {
				t.Fatalf("train[%d][%d] = %g, want %g", i, j, train.Xs[i][j], wantTrain.Xs[i][j])
			}
		}
		if train.Ys[i] != wantTrain.Ys[i] {
			t.Fatalf("train label %d differs", i)
		}
	}
	if test.Len() != wantTest.Len() {
		t.Fatalf("test size %d, want %d", test.Len(), wantTest.Len())
	}
}

// TestGenerateSharedKeyMisses: a different seed, size, or profile field
// is a different corpus, never a stale hit.
func TestGenerateSharedKeyMisses(t *testing.T) {
	withFreshCache(t)
	p := EMNISTDigitsLike()
	p.Dim = 16
	p.GenerateShared(20, 10, 42)
	p.GenerateShared(20, 10, 43) // seed differs
	p.GenerateShared(21, 10, 42) // size differs
	q := p
	q.Noise *= 2
	q.GenerateShared(20, 10, 42) // profile content differs
	r := FashionMNISTLike()
	r.Dim = 16
	r.GenerateShared(20, 10, 42) // profile name differs
	if hits, misses := CacheStats(); hits != 0 || misses != 5 {
		t.Fatalf("stats = %d hits / %d misses, want 0/5", hits, misses)
	}
}

// TestFederationSharedGenerators: the Adult and Li-synthetic federation
// caches alias on hits and match their uncached construction.
func TestFederationSharedGenerators(t *testing.T) {
	withFreshCache(t)
	aCfg := DefaultAdult()
	aCfg.TrainPerArea, aCfg.TestPerArea = 60, 20
	f1 := GenerateAdultShared(aCfg, 2, 9)
	f2 := GenerateAdultShared(aCfg, 2, 9)
	if f1 != f2 {
		t.Fatal("same-key GenerateAdultShared must return the same federation")
	}
	sCfg := DefaultLiSynthetic()
	sCfg.NumDevices, sCfg.MeanSamples, sCfg.TestPer = 6, 10, 5
	g1 := GenerateLiSyntheticShared(sCfg, 2, 9)
	g2 := GenerateLiSyntheticShared(sCfg, 2, 9)
	if g1 != g2 {
		t.Fatal("same-key GenerateLiSyntheticShared must return the same federation")
	}
	if hits, misses := CacheStats(); hits != 2 || misses != 2 {
		t.Fatalf("stats = %d hits / %d misses, want 2/2", hits, misses)
	}
}

// TestMutationGuard: scribbling on a cached view is caught (panic) by
// the fingerprint check at the next access of the same key.
func TestMutationGuard(t *testing.T) {
	withFreshCache(t)
	p := EMNISTDigitsLike()
	p.Dim = 8
	train, _ := p.GenerateShared(10, 5, 42)
	train.Xs[3][2] += 0.5 // a run violating the read-only contract
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("mutated cached view must panic on the next access")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "mutated through a shared view") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	p.GenerateShared(10, 5, 42)
}

// TestMutationGuardSignFlips: two features negated in place — top-bit
// differences that cancel each other in a hash that only xors and
// multiplies whole words — are caught.
func TestMutationGuardSignFlips(t *testing.T) {
	withFreshCache(t)
	p := EMNISTDigitsLike()
	p.Dim = 8
	train, _ := p.GenerateShared(10, 5, 42)
	train.Xs[3][2] = -train.Xs[3][2]
	train.Xs[7][5] = -train.Xs[7][5]
	defer func() {
		if recover() == nil {
			t.Fatal("two sign flips on a cached view must panic on the next access")
		}
	}()
	p.GenerateShared(10, 5, 42)
}

// TestMutationGuardLabels: label mutations are caught too.
func TestMutationGuardLabels(t *testing.T) {
	withFreshCache(t)
	cfg := DefaultLiSynthetic()
	cfg.NumDevices, cfg.MeanSamples, cfg.TestPer = 6, 10, 5
	fed := GenerateLiSyntheticShared(cfg, 2, 3)
	fed.Areas[0].Test.Ys[0] ^= 1
	defer func() {
		if recover() == nil {
			t.Fatal("mutated cached labels must panic on the next access")
		}
	}()
	GenerateLiSyntheticShared(cfg, 2, 3)
}

// TestGenerateSharedConcurrent: concurrent first requests for one key
// generate exactly once and everyone sees the same arrays.
func TestGenerateSharedConcurrent(t *testing.T) {
	withFreshCache(t)
	p := EMNISTDigitsLike()
	p.Dim = 16
	const callers = 8
	ptrs := make([]*float64, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for c := 0; c < callers; c++ {
		go func(c int) {
			defer wg.Done()
			train, _ := p.GenerateShared(20, 10, 42)
			ptrs[c] = &train.Xs[0][0]
		}(c)
	}
	wg.Wait()
	for c := 1; c < callers; c++ {
		if ptrs[c] != ptrs[0] {
			t.Fatal("concurrent callers must share one backing array")
		}
	}
	if hits, misses := CacheStats(); misses != 1 || hits != callers-1 {
		t.Fatalf("stats = %d hits / %d misses, want %d/1", hits, misses, callers-1)
	}
}

// TestCacheReset: reset drops entries (next request regenerates) and
// zeroes the counters.
func TestCacheReset(t *testing.T) {
	withFreshCache(t)
	p := EMNISTDigitsLike()
	p.Dim = 8
	train1, _ := p.GenerateShared(10, 5, 1)
	CacheReset()
	if hits, misses := CacheStats(); hits != 0 || misses != 0 {
		t.Fatal("CacheReset must zero the counters")
	}
	train2, _ := p.GenerateShared(10, 5, 1)
	if &train1.Xs[0][0] == &train2.Xs[0][0] {
		t.Fatal("post-reset generation must rebuild the corpus")
	}
}
