// Dataset cache: content-keyed memoization of the synthetic generators,
// so a sweep of independent runs over the same (profile, sizes, seed)
// builds each corpus once and shares it as an immutable view.
//
// Immutability protocol (DESIGN.md §11): cached datasets are shared
// backing arrays — consumers must treat features and labels as
// read-only. Training never writes example data (Subset.SampleInto
// hands out aliases, models read them), and the partitioners build new
// index structures over the same vectors. The cache enforces the
// protocol with a fingerprint guard: every entry records a word-wise
// hash of its full content (fpWord) at generation time, every later
// cache access re-hashes and panics on a mismatch, so a run that
// scribbles on a shared view is caught at the next access instead of
// silently corrupting a sibling run.
package data

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/obs"
)

// Cache observability: hits/misses count logical corpus requests;
// data_cache_hit_rate is the process-lifetime ratio.
var (
	cacheHits   = obs.NewCounterHandle("data_cache_hits_total")
	cacheMisses = obs.NewCounterHandle("data_cache_misses_total")
	cacheRate   = obs.NewGaugeHandle("data_cache_hit_rate")
)

// cacheEntry is one memoized generation. generate runs under once so
// concurrent first requests for the same key build the corpus exactly
// once; later hits verify fp before handing the views out.
type cacheEntry struct {
	once        sync.Once
	train, test Dataset     // corpus-level generators (ImageProfile)
	fed         *Federation // federation-level generators (Adult, LiSynthetic)
	fp          uint64
}

// datasetCache is the process-wide store. Entries live for the process
// (sweeps re-request the same few corpora).
type datasetCache struct {
	mu           sync.Mutex
	entries      map[string]*cacheEntry
	hits, misses int64
}

var cache = datasetCache{entries: map[string]*cacheEntry{}}

// lookup returns the entry for key, creating it on a miss, and records
// the hit/miss. The boolean reports whether the entry already existed.
func (c *datasetCache) lookup(key string) (*cacheEntry, bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{}
		c.entries[key] = e
		c.misses++
		cacheMisses.Inc()
	} else {
		c.hits++
		cacheHits.Inc()
	}
	if total := c.hits + c.misses; total > 0 {
		cacheRate.Set(float64(c.hits) / float64(total))
	}
	c.mu.Unlock()
	return e, ok
}

// CacheStats returns the process-lifetime (hits, misses) counts.
func CacheStats() (hits, misses int64) {
	cache.mu.Lock()
	defer cache.mu.Unlock()
	return cache.hits, cache.misses
}

// --- fingerprint guard ---

// The fingerprint starts from the FNV-1a offset basis and multiplies by
// the FNV-1a prime, but folds a whole 64-bit word per step.
const (
	fpSeed  = 14695981039346656037
	fpPrime = 1099511628211
)

// fpWord folds one 64-bit word into h: xor, rotate, multiply by an odd
// constant. For a fixed v the step is a bijection of h and for a fixed
// h an injection of v, so changing any single word of the content
// always changes the final fingerprint. The rotation is what a plain
// (h^v)*prime lacks: there a flipped top bit stays a lone top bit
// through every later multiply, and a second flipped sign bit anywhere
// after it cancels the first; rotated into the low half, the difference
// is spread upwards by this multiply and the following ones.
func fpWord(h, v uint64) uint64 {
	return bits.RotateLeft64(h^v, 32) * fpPrime
}

// fpSubset folds a subset's features and labels into h.
func fpSubset(h uint64, s Subset) uint64 {
	h = fpWord(h, uint64(s.Len()))
	for i, x := range s.Xs {
		for _, v := range x {
			h = fpWord(h, math.Float64bits(v))
		}
		h = fpWord(h, uint64(s.Ys[i]))
	}
	return h
}

func fpDatasets(train, test Dataset) uint64 {
	h := fpSubset(fpSeed, train.Subset)
	return fpSubset(h, test.Subset)
}

func fpFederation(f *Federation) uint64 {
	h := fpWord(fpSeed, uint64(len(f.Areas)))
	for _, a := range f.Areas {
		for _, shard := range a.Clients {
			h = fpSubset(h, shard)
		}
		h = fpSubset(h, a.Train)
		h = fpSubset(h, a.Test)
	}
	return h
}

// verify panics when a cached view no longer matches its generation-time
// fingerprint — some consumer mutated shared features or labels.
func (e *cacheEntry) verify(key string, now uint64) {
	if now != e.fp {
		panic(fmt.Sprintf("data: cached dataset %q was mutated through a shared view (fingerprint %x, recorded %x); cached corpora are read-only", key, now, e.fp))
	}
}

// --- cached generators ---

// GenerateShared is Generate memoized by the profile's full content,
// the sizes and the seed. The returned datasets share backing arrays
// with every other caller of the same key and MUST be treated as
// read-only; mutations are detected (panic) on the next cache access.
// Safe for concurrent use; concurrent first requests generate once.
func (p ImageProfile) GenerateShared(perClassTrain, perClassTest int, seed uint64) (train, test Dataset) {
	key := fmt.Sprintf("image|%s|%d|%d|%g|%g|%g|%v|%v|%g|%d|%d|%d",
		p.Name, p.Dim, p.Classes, p.Sep, p.Noise, p.ConfuseDist,
		p.Confusable, p.NoisyClasses, p.NoiseBoost, perClassTrain, perClassTest, seed)
	e, hit := cache.lookup(key)
	e.once.Do(func() {
		e.train, e.test = p.Generate(perClassTrain, perClassTest, seed)
		e.fp = fpDatasets(e.train, e.test)
	})
	if hit {
		e.verify(key, fpDatasets(e.train, e.test))
	}
	return e.train, e.test
}

// GenerateAdultShared is GenerateAdult memoized by (config, layout,
// seed); same sharing and read-only contract as GenerateShared.
func GenerateAdultShared(cfg AdultConfig, clientsPerArea int, seed uint64) *Federation {
	key := fmt.Sprintf("adult|%+v|%d|%d", cfg, clientsPerArea, seed)
	e, hit := cache.lookup(key)
	e.once.Do(func() {
		e.fed = GenerateAdult(cfg, clientsPerArea, seed)
		e.fp = fpFederation(e.fed)
	})
	if hit {
		e.verify(key, fpFederation(e.fed))
	}
	return e.fed
}

// GenerateLiSyntheticShared is GenerateLiSynthetic memoized by (config,
// layout, seed); same sharing and read-only contract as GenerateShared.
func GenerateLiSyntheticShared(cfg LiSyntheticConfig, clientsPerArea int, seed uint64) *Federation {
	key := fmt.Sprintf("lisynthetic|%+v|%d|%d", cfg, clientsPerArea, seed)
	e, hit := cache.lookup(key)
	e.once.Do(func() {
		e.fed = GenerateLiSynthetic(cfg, clientsPerArea, seed)
		e.fp = fpFederation(e.fed)
	})
	if hit {
		e.verify(key, fpFederation(e.fed))
	}
	return e.fed
}
