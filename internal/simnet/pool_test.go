package simnet

import (
	"sync"
	"testing"

	"repro/internal/chaos"
	"repro/internal/fl/fltest"
	"repro/internal/topology"
)

// After any full run — including one with failure injection, which
// exercises the sender-releases-on-drop path — every pooled payload
// vector must be back in the arena: the single-owner protocol admits no
// leaks.
func TestPoolLeakFreeAfterRun(t *testing.T) {
	cfg := fltest.ToyConfig()
	cfg.Rounds = 30
	cfg.TrackAverages = true // widest payload set: models, checkpoints, iterate sums
	_, stats, err := HierMinimax(fltest.ToyProblem(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PoolOutstanding != 0 {
		t.Fatalf("leak: %d vectors outstanding after clean run", stats.PoolOutstanding)
	}
	if stats.PoolRecycled == 0 {
		t.Fatal("pool never recycled a vector across 30 rounds")
	}

	cfg = fltest.ToyConfig()
	cfg.Rounds = 60
	_, stats, err = HierMinimax(fltest.ToyProblem(1), cfg, WithChaos(&chaos.Schedule{Seed: 4, LossProb: 0.25}))
	if err != nil {
		t.Fatal(err)
	}
	if stats.MessagesLost == 0 {
		t.Fatal("link loss never fired")
	}
	if stats.PoolOutstanding != 0 {
		t.Fatalf("leak: %d vectors outstanding after lossy run", stats.PoolOutstanding)
	}
}

// Returning the same vector twice without an intervening get means two
// protocol parties both believed they owned it; the pool must catch that
// immediately rather than let a later round read aliased memory.
func TestPoolDoublePutPanics(t *testing.T) {
	p := newVecPool(nil)
	v := p.get(8)
	p.put(v)
	defer func() {
		if recover() == nil {
			t.Fatal("double put did not panic")
		}
	}()
	p.put(v)
}

func TestPoolRejectsBadVectors(t *testing.T) {
	p := newVecPool(nil)
	t.Run("get non-positive", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("get(0) did not panic")
			}
		}()
		p.get(0)
	})
	t.Run("put empty", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("put(nil) did not panic")
			}
		}()
		p.put(nil)
	})
}

func TestPoolReusesAndCounts(t *testing.T) {
	p := newVecPool(nil)
	a := p.get(4)
	p.put(a)
	b := p.get(4)
	if &a[0] != &b[0] {
		t.Fatal("pool did not recycle the freed vector")
	}
	if p.Allocated() != 1 || p.Recycled() != 1 || p.Outstanding() != 1 {
		t.Fatalf("counters: allocated=%d recycled=%d outstanding=%d",
			p.Allocated(), p.Recycled(), p.Outstanding())
	}
	p.put(b)
	if p.Outstanding() != 0 {
		t.Fatalf("outstanding=%d after final put", p.Outstanding())
	}
}

// The seal contract: mutating the route table after Seal, sending before
// Seal, and sealing twice are all protocol bugs that must fail loudly.
func TestSealContract(t *testing.T) {
	expectPanic := func(t *testing.T, what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}
	t.Run("register after seal", func(t *testing.T) {
		n := NewNetwork()
		n.Register(NodeID{Kind: Client, Index: 0}, 1)
		n.Seal()
		expectPanic(t, "Register after Seal", func() { n.Register(NodeID{Kind: Client, Index: 1}, 1) })
	})
	t.Run("setdrop after seal", func(t *testing.T) {
		n := NewNetwork()
		n.Seal()
		expectPanic(t, "SetDrop after Seal", func() { n.SetDrop(func(Message) bool { return false }) })
	})
	t.Run("send before seal", func(t *testing.T) {
		n := NewNetwork()
		n.Register(NodeID{Kind: Client, Index: 0}, 1)
		expectPanic(t, "Send before Seal", func() {
			n.Send(Message{To: NodeID{Kind: Client, Index: 0}, Kind: "x"})
		})
	})
	t.Run("double seal", func(t *testing.T) {
		n := NewNetwork()
		n.Seal()
		expectPanic(t, "double Seal", func() { n.Seal() })
	})
}

// Hammer the sealed route table from many senders at once (run under
// ci.sh's -race pass): after Seal, Send's map read takes no lock, which
// is only sound because the table is immutable.
func TestSealedConcurrentSend(t *testing.T) {
	n := NewNetwork()
	const targets = 8
	const senders = 16
	const perSender = 500
	boxes := make([]<-chan Message, targets)
	for i := 0; i < targets; i++ {
		boxes[i] = n.Register(NodeID{Kind: Client, Index: i}, senders*perSender/targets)
	}
	n.SetDrop(func(m Message) bool { return m.Kind == "lossy" })
	n.Seal()

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				kind := "fine"
				if i%5 == 0 {
					kind = "lossy"
				}
				n.Send(Message{
					From: NodeID{Kind: Edge, Index: s}, To: NodeID{Kind: Client, Index: (s + i) % targets},
					Kind: kind, Bytes: 8,
				})
			}
		}(s)
	}
	wg.Wait()

	delivered := 0
	for i := 0; i < targets; i++ {
		delivered += len(boxes[i])
	}
	total := int64(senders * perSender)
	if n.Sent() != total {
		t.Fatalf("sent %d, want %d", n.Sent(), total)
	}
	if int64(delivered)+n.Lost() != total {
		t.Fatalf("delivered %d + lost %d != sent %d", delivered, n.Lost(), total)
	}
	if n.Lost() != int64(senders*perSender/5) {
		t.Fatalf("lost %d, want %d", n.Lost(), senders*perSender/5)
	}
}

// The same hammer with a live fault schedule installed (run under
// ci.sh's -race pass): the faultHook's pure schedule queries and its
// per-link atomic sequence counters must be sound under concurrent
// senders, and losses must stay within the sent/lost/delivered
// conservation law.
func TestSealedConcurrentSendUnderFaults(t *testing.T) {
	top := topology.New(4, 4)
	n := NewNetwork()
	const senders = 16
	const perSender = 400
	cloud := NodeID{Kind: Cloud, Index: 0}
	n.Register(cloud, senders*perSender)
	boxes := make([]<-chan Message, top.NumEdges)
	for e := 0; e < top.NumEdges; e++ {
		boxes[e] = n.Register(NodeID{Kind: Edge, Index: e}, senders*perSender)
	}
	sched := &chaos.Schedule{Seed: 42, PartitionProb: 0.2, LossProb: 0.1, CrashProb: 0.3}
	n.SetDrop(newFaultHook(sched, top).drop)
	n.Seal()

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				msg := Message{
					From: cloud, To: NodeID{Kind: Edge, Index: (s + i) % top.NumEdges},
					Kind: "edge-train-req", Round: i % 11, Bytes: 8,
				}
				if i%3 == 0 {
					n.SendRetry(msg, 2)
				} else {
					n.Send(msg)
				}
				// Concurrent pure-schedule queries from the sender side,
				// mimicking actors consulting crash/straggle decisions.
				sched.ClientCrashed(i%11, top.ClientID((s+i)%top.NumEdges, i%top.ClientsPerEdge))
			}
		}(s)
	}
	wg.Wait()

	delivered := 0
	for e := 0; e < top.NumEdges; e++ {
		delivered += len(boxes[e])
	}
	if int64(delivered)+n.Lost() != n.Sent() {
		t.Fatalf("conservation violated: delivered %d + lost %d != sent %d",
			delivered, n.Lost(), n.Sent())
	}
	if n.Lost() == 0 {
		t.Fatal("fault schedule never dropped anything")
	}
	if n.Retries() == 0 {
		t.Fatal("SendRetry under loss never recorded a retransmission")
	}
}
