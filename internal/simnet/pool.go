package simnet

import (
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/quant"
)

// vecPool recycles the model-sized payload vectors that carry all weight
// traffic through the simnet fabric. Every trainReq.W, lossReq.W, reply
// model, checkpoint and iterate-sum vector is drawn here and returned by
// its final receiver, so a round recirculates a bounded working set
// (proportional to the protocol's outstanding-message bound) instead of
// allocating ~2·m_E·tau2·N0 fresh vectors per round.
//
// Ownership protocol (single-owner discipline, see DESIGN.md §9): get
// transfers exclusive ownership to the caller; sending a message
// transfers ownership of its payload vectors to the receiver; whoever
// holds a vector when it leaves the protocol (after aggregation, after a
// failed Send, after a loss evaluation) must put it back exactly once.
// Vectors arrive with arbitrary contents — owners must copy or Zero
// before reading.
//
// The pool is safe for concurrent use by all actors of a network. It
// detects double-put (the one bug class the single-owner protocol can't
// survive silently) by tracking the backing arrays currently in the free
// lists, and panics on violation.
type vecPool struct {
	mu sync.Mutex
	// free lists keyed by vector length (one entry in practice: the model
	// dimension; kept general so heterogeneous payloads stay correct).
	free map[int][][]float64
	// inFree holds the backing-array identity of every free vector, for
	// double-put detection.
	inFree map[*float64]struct{}

	outstanding int64 // vectors issued and not yet returned
	recycled    int64 // puts that fed a later get
	allocated   int64 // gets that had to allocate fresh

	// Optional observability (nil without a hub): outstanding tracks the
	// live working set, the counters expose recycling effectiveness.
	gOutstanding *obs.Gauge
	cRecycled    *obs.Counter
	cAllocated   *obs.Counter
}

func newVecPool(h *obs.Hub) *vecPool {
	p := &vecPool{
		free:   make(map[int][][]float64),
		inFree: make(map[*float64]struct{}),
	}
	if h != nil {
		reg := h.Registry()
		p.gOutstanding = reg.Gauge("simnet_pool_outstanding")
		p.cRecycled = reg.Counter("simnet_pool_recycled_total")
		p.cAllocated = reg.Counter("simnet_pool_allocated_total")
	}
	return p
}

// get returns an exclusively-owned vector of length d with arbitrary
// contents. d must be positive.
func (p *vecPool) get(d int) []float64 {
	if d <= 0 {
		panic(fmt.Sprintf("simnet: vecPool.get of non-positive dim %d", d))
	}
	p.mu.Lock()
	var v []float64
	if list := p.free[d]; len(list) > 0 {
		v = list[len(list)-1]
		list[len(list)-1] = nil
		p.free[d] = list[:len(list)-1]
		delete(p.inFree, &v[0])
	} else {
		v = make([]float64, d)
		p.allocated++
		if p.cAllocated != nil {
			p.cAllocated.Inc()
		}
	}
	p.outstanding++
	if p.gOutstanding != nil {
		p.gOutstanding.Set(float64(p.outstanding))
	}
	p.mu.Unlock()
	return v
}

// put returns a vector to the pool. Putting the same vector twice
// without an intervening get panics: that means two protocol parties
// both believed they owned it, which would corrupt a later round.
func (p *vecPool) put(v []float64) {
	if len(v) == 0 {
		panic("simnet: vecPool.put of empty vector")
	}
	key := &v[0]
	p.mu.Lock()
	if _, dup := p.inFree[key]; dup {
		p.mu.Unlock()
		panic("simnet: vecPool double put — payload vector returned twice")
	}
	p.inFree[key] = struct{}{}
	p.free[len(v)] = append(p.free[len(v)], v)
	p.outstanding--
	p.recycled++
	if p.gOutstanding != nil {
		p.gOutstanding.Set(float64(p.outstanding))
	}
	if p.cRecycled != nil {
		p.cRecycled.Inc()
	}
	p.mu.Unlock()
}

// release puts back every non-nil vector of vs.
func (p *vecPool) release(vs ...[]float64) {
	for _, v := range vs {
		if v != nil {
			p.put(v)
		}
	}
}

// unpack returns a reply vector dense: v itself, or pk decoded into a
// vector of length d drawn here (pk goes back to its pool).
func (p *vecPool) unpack(v []float64, pk *quant.Packed, d int) []float64 {
	if pk == nil {
		return v
	}
	v = p.get(d)
	pk.UnpackInto(v)
	quant.PutPacked(pk)
	return v
}

// Outstanding returns the number of vectors issued and not yet returned.
// A quiesced network (between rounds, or after a run) must report 0 —
// anything else is a payload leak (asserted in tests).
func (p *vecPool) Outstanding() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.outstanding
}

// Recycled returns the number of put calls that made a vector available
// for reuse.
func (p *vecPool) Recycled() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.recycled
}

// Allocated returns the number of fresh vector allocations; after warm-up
// this stays flat while Recycled keeps growing.
func (p *vecPool) Allocated() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.allocated
}
