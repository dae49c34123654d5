package main

import (
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	hierfair "repro"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/fl"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/population"
	"repro/internal/quant"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/simplex"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// shape is the workload's own problem size: the probes time each layer's
// public functions on these dimensions, not on canned ones.
type shape struct {
	in, classes      int // model input and output width
	h1, h2           int // MLP hidden widths
	mlp              bool
	d                int // parameters of the workload's model
	batch, lossBatch int
	nE, mE, n0       int
	cohort           int // clients trained per slot: N0, or the sampled cohort
	tau1, tau2       int
	mdl              model.Model
	fed              *data.Federation
	// gen rebuilds the workload's corpus: the shared-cache hit and miss.
	gen func(shared bool) (train, test data.Dataset)
}

func shapeOf(w *workload, seed uint64) shape {
	s := w.spec
	sh := shape{
		in: s.InputDim, h1: 300, h2: 100, mlp: s.Model == hierfair.ModelMLP,
		batch: s.BatchSize, lossBatch: s.LossBatch,
		nE: s.NumEdges, mE: s.SampledEdges, n0: s.ClientsPerEdge, cohort: s.ClientsPerEdge,
		tau1: s.Tau1, tau2: s.Tau2,
	}
	if s.Population > 0 {
		sh.cohort = s.SamplePerRound / s.SampledEdges
	}
	profile := data.EMNISTDigitsLike()
	profile.Dim = s.InputDim
	perTrain, perTest, genSeed := s.TrainPerClass, s.TestPerClass, s.Seed+100
	if w.sweep {
		setup := sweepSetup(seed, 1)
		sh.fed = setup.Fed
		perTrain, perTest, genSeed = 400, 150, seed // experiments' smoke corpus
	}
	sh.gen = func(shared bool) (data.Dataset, data.Dataset) {
		if shared {
			return profile.GenerateShared(perTrain, perTest, genSeed)
		}
		return profile.Generate(perTrain, perTest, genSeed)
	}
	if sh.fed == nil {
		train, test := sh.gen(true)
		sh.fed = data.OneClassPerArea(train, test, s.ClientsPerEdge, s.Seed+103)
	}
	sh.classes = sh.fed.NumClasses
	if sh.mlp {
		sh.mdl = model.NewMLP(sh.in, sh.h1, sh.h2, sh.classes)
	} else {
		sh.mdl = model.NewLinear(sh.in, sh.classes)
	}
	sh.d = sh.mdl.Dim()
	return sh
}

// prober times calls into one layer's public functions from the outside
// and collects the per-layer metrics.
type prober struct {
	rec     *recorder
	dur     time.Duration // timed calls per probe
	metrics map[string]metric
	t       *tally
}

func (p *prober) set(name string, v float64, unit string) { p.metrics[name] = metric{v, unit} }

// nsPerCall runs fn in batches of at least a millisecond for the probe's
// duration and returns the median batch's nanoseconds per call. It leaves
// one probe span with a call span per batch.
func (p *prober) nsPerCall(name string, fn func()) float64 {
	id, done := p.rec.open(0, "probe "+name)
	defer done()
	batch := 1
	for {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		if time.Since(t0) >= time.Millisecond || batch >= 1<<22 {
			break
		}
		batch *= 2
	}
	var per []float64
	for start := time.Now(); len(per) == 0 || time.Since(start) < p.dur; {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		t1 := time.Now()
		p.rec.add(id, "call", t0, t1, batch)
		per = append(per, float64(t1.Sub(t0))/float64(batch))
	}
	return median(per)
}

// allocsPerCall is the mean number of heap allocations of one fn call.
func allocsPerCall(n int, fn func()) float64 {
	fn() // size lazily grown buffers first
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// fmaChains runs n rounds of eight independent fused multiply-adds.
func fmaChains(n int) float64 {
	a0, a1, a2, a3, a4, a5, a6, a7 := 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0
	const m, c = 0.999, 0.001
	for i := 0; i < n; i++ {
		a0 = math.FMA(a0, m, c)
		a1 = math.FMA(a1, m, c)
		a2 = math.FMA(a2, m, c)
		a3 = math.FMA(a3, m, c)
		a4 = math.FMA(a4, m, c)
		a5 = math.FMA(a5, m, c)
		a6 = math.FMA(a6, m, c)
		a7 = math.FMA(a7, m, c)
	}
	return a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
}

func randVec(r *rng.Stream, n int) []float64 {
	v := make([]float64, n)
	r.Fill(v, 1)
	return v
}

func randMatrix(r *rng.Stream, rows, cols int) *tensor.Matrix {
	return tensor.MatrixFrom(randVec(r, rows*cols), rows, cols)
}

func (p *prober) tensorProbes(s shape) {
	r := rng.New(1)

	// Roofline calibrators, both independent of the repository's kernels: a
	// copy that misses every cache, and eight independent scalar FMA chains
	// held in registers (a 4-wide float64 SIMD kernel can reach four times
	// the latter).
	const big = 4 << 20 // 32 MiB of float64
	src, dst := randVec(r, big), make([]float64, big)
	p.set("tensor.memcpy_gbps", float64(8*big)/p.nsPerCall("tensor.memcpy", func() { copy(dst, src) }), "GB/s")
	const chain = 512
	var sink float64
	p.set("tensor.fma_gflops", 2*8*chain/p.nsPerCall("tensor.fma", func() { sink += fmaChains(chain) }), "GFLOP/s")

	// The forward and weight-gradient GEMMs of the workload's widest layer.
	cols := s.classes
	if s.mlp {
		cols = s.h1
	}
	x, wm, z := randMatrix(r, s.batch, s.in), randMatrix(r, cols, s.in), tensor.NewMatrix(s.batch, cols)
	flops := float64(2 * s.batch * s.in * cols)
	p.set("tensor.gemmt_gflops", flops/p.nsPerCall("tensor.gemmt", func() { tensor.GemmT(1, x, wm, 0, z) }), "GFLOP/s")
	dz, gw := randMatrix(r, s.batch, cols), tensor.NewMatrix(cols, s.in)
	alpha := 1.0
	p.set("tensor.gemmtn_gflops", flops/p.nsPerCall("tensor.gemmtn", func() {
		tensor.GemmTN(alpha, dz, x, gw)
		alpha = -alpha // accumulate and cancel, so gw stays bounded
	}), "GFLOP/s")

	// Model-sized vector kernels; bytes are operands read plus written.
	u, v := randVec(r, s.d), randVec(r, s.d)
	p.set("tensor.dot_gbps", float64(16*s.d)/p.nsPerCall("tensor.dot", func() { sink += tensor.Dot(u, v) }), "GB/s")
	p.set("tensor.axpy_gbps", float64(24*s.d)/p.nsPerCall("tensor.axpy", func() {
		tensor.Axpy(alpha, u, v)
		alpha = -alpha
	}), "GB/s")
	logits, probs := randMatrix(r, s.batch, s.classes), tensor.NewMatrix(s.batch, s.classes)
	p.set("tensor.softmax_ns_row", p.nsPerCall("tensor.softmax", func() { tensor.SoftmaxRows(probs, logits) })/float64(s.batch), "ns")
	vecs := make([][]float64, s.n0)
	for i := range vecs {
		vecs[i] = randVec(r, s.d)
	}
	avg := make([]float64, s.d)
	p.set("tensor.average_gbps", float64(8*s.d*(s.n0+1))/p.nsPerCall("tensor.average", func() { tensor.AverageInto(avg, vecs...) }), "GB/s")
	_ = sink
}

// batchOf draws n examples of the workload's first client shard.
func batchOf(s shape, n int) ([][]float64, []int) {
	return s.fed.Areas[0].Clients[0].Sample(rng.New(2), n)
}

func (p *prober) modelProbes(s shape) {
	for _, m := range []struct {
		name string
		mdl  model.Model
	}{
		{"linear", model.NewLinear(s.in, s.classes)},
		{"mlp", model.NewMLP(s.in, s.h1, s.h2, s.classes)},
	} {
		w, grad := make([]float64, m.mdl.Dim()), make([]float64, m.mdl.Dim())
		m.mdl.Init(w, rng.New(3))
		xs, ys := batchOf(s, s.batch)
		ns := p.nsPerCall("model."+m.name+"_grad", func() { m.mdl.Grad(w, grad, xs, ys) })
		p.set("model."+m.name+"_grad_ns_example", ns/float64(s.batch), "ns")
		xs, ys = batchOf(s, s.lossBatch)
		ns = p.nsPerCall("model."+m.name+"_loss", func() { m.mdl.Loss(w, xs, ys) })
		p.set("model."+m.name+"_loss_ns_example", ns/float64(s.lossBatch), "ns")
	}
}

func (p *prober) flProbes(s shape) {
	shard := s.fed.Areas[0].Clients[0]
	mdl := s.mdl.Clone()
	w0, w, chk := make([]float64, s.d), make([]float64, s.d), make([]float64, s.d)
	mdl.Init(w0, rng.New(4))
	var W simplex.Set = simplex.FullSpace{Dim: s.d} // boxed once, not per call
	r := rng.New(5)
	var scratch fl.Scratch
	block := func() {
		copy(w, w0)
		fl.LocalSGDScratch(mdl, w, shard, s.tau1, s.batch, 0.01, W, r, 1, nil, chk, &scratch)
	}
	p.set("fl.localsgd_step_ns", p.nsPerCall("fl.localsgd", block)/float64(s.tau1), "ns")
	p.set("fl.localsgd_allocs_step", allocsPerCall(50, block)/float64(s.tau1), "count")
	p.set("fl.legacy_localsgd_allocs_step", allocsPerCall(50, func() {
		fl.LocalSGD(mdl, w0, shard, s.tau1, s.batch, 0.01, W, r, 1, nil)
	})/float64(s.tau1), "count")
	p.set("fl.shard_loss_ns", p.nsPerCall("fl.shard_loss", func() {
		fl.ShardLossEstimate(mdl, w0, shard, s.lossBatch, r, &scratch)
	}), "ns")
}

func (p *prober) dataProbes(s shape) {
	p.set("data.shared_hit_ms", p.nsPerCall("data.shared_hit", func() { s.gen(true) })/1e6, "ms")
	p.set("data.generate_miss_ms", p.nsPerCall("data.generate_miss", func() { s.gen(false) })/1e6, "ms")
	shard := s.fed.Areas[0].Clients[0]
	xs, ys := make([][]float64, s.batch), make([]int, s.batch)
	r := rng.New(6)
	p.set("data.sample_into_ns", p.nsPerCall("data.sample_into", func() { shard.SampleInto(r, xs, ys) })/float64(s.batch), "ns")

	mdl := s.mdl.Clone()
	w := make([]float64, s.d)
	mdl.Init(w, rng.New(7))
	p.set("metrics.eval_ms", p.nsPerCall("metrics.eval", func() { metrics.EvaluateAreas(mdl, w, s.fed) })/1e6, "ms")

	// The dual weights live on the N_E-simplex; the copy restores a point
	// off the simplex for every projection.
	off, pt := randVec(rng.New(8), s.nE), make([]float64, s.nE)
	P := simplex.Simplex{Dim: s.nE}
	p.set("simplex.project_ns", p.nsPerCall("simplex.project", func() {
		copy(pt, off)
		P.Project(pt)
	}), "ns")
}

func (p *prober) quantProbes(s shape) {
	x, back := randVec(rng.New(9), s.d), make([]float64, s.d)
	r := rng.New(10)
	pk := quant.GetPacked()
	defer quant.PutPacked(pk)
	q8 := quant.Config{Bits: 8}
	p.set("quant.pack_ns_elem", p.nsPerCall("quant.pack", func() { q8.Pack(pk, x, nil, r) })/float64(s.d), "ns")
	p.set("quant.unpack_ns_elem", p.nsPerCall("quant.unpack", func() { pk.UnpackInto(back) })/float64(s.d), "ns")
	tensor.Axpy(-1, x, back)
	p.set("quant.rel_error", tensor.Norm2(back)/tensor.Norm2(x), "ratio")
	topk := quant.Config{TopK: max(1, s.d/16)}
	p.set("quant.topk_pack_ns_elem", p.nsPerCall("quant.topk_pack", func() { topk.Pack(pk, x, nil, r) })/float64(s.d), "ns")
}

func (p *prober) populationProbes(s shape, seed uint64) {
	roster := population.New(seed, 1000000, s.nE, s.cohort)
	var ids []int
	k := 0
	ns := p.nsPerCall("population.cohort", func() {
		ids = roster.CohortInto(ids, k, k%s.nE)
		k++
	})
	p.set("population.cohort_ns_client", ns/float64(s.cohort), "ns")
	var scratch population.ShardScratch
	corpus := s.fed.Areas[0].Train
	p.set("population.shard_into_ns", p.nsPerCall("population.shard_into", func() {
		roster.ShardInto(ids[k%len(ids)], corpus, &scratch)
		k++
	}), "ns")
}

// simnetSendProbe bounces one pooled message between two registered
// mailboxes: two Sends and two channel hand-offs per call.
func (p *prober) simnetSendProbe() {
	nw := simnet.NewNetwork()
	edge, client := simnet.NodeID{Kind: simnet.Edge}, simnet.NodeID{Kind: simnet.Client}
	edgeBox, clientBox := nw.Register(edge, 1), nw.Register(client, 1)
	nw.Seal()
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		for m := range clientBox {
			if m.IsControl() {
				return
			}
			nw.Send(simnet.Message{From: client, To: edge, Kind: "loss-reply", Payload: m.Payload, Bytes: 8})
		}
	}()
	reply := &wire.LossReply{}
	ns := p.nsPerCall("simnet.send", func() {
		nw.Send(simnet.Message{From: edge, To: client, Kind: "loss-req", Payload: reply, Bytes: 8})
		<-edgeBox
	})
	nw.Send(simnet.Message{From: edge, To: client, Payload: wire.Stop{}})
	<-echoed
	nw.Close()
	p.set("simnet.send_ns_msg", ns/2, "ns")
}

// codecProbes time AppendMessage and DecodeMessage on the two frames that
// carry a round's bytes: a dense model broadcast and a packed uplink.
func (p *prober) codecProbes(s shape) {
	w := randVec(rng.New(11), s.d)
	from, to := wire.NodeID{Kind: wire.Edge}, wire.NodeID{Kind: wire.Client}
	dense := wire.Message{From: from, To: to, Kind: "train-req", Bytes: int64(8 * s.d),
		Payload: &wire.TrainReq{W: w, Steps: s.tau1, Batch: s.batch, Stream: rng.Root(12)}}
	q8 := quant.Config{Bits: 8}
	wp, cp := quant.GetPacked(), quant.GetPacked()
	defer quant.PutPacked(wp)
	defer quant.PutPacked(cp)
	q8.Pack(wp, w, nil, rng.New(13))
	q8.Pack(cp, w, nil, rng.New(14))
	packed := wire.Message{From: to, To: from, Kind: "train-reply", Bytes: 2 * wp.WireBytes(),
		Payload: &wire.TrainReply{WFinalP: wp, WChkP: cp}}

	// One reusable vector serves every decode, so the probe times the codec
	// and not the allocator.
	vec := make([]float64, s.d)
	alloc := func(d int) []float64 { return vec[:d] }
	for _, c := range []struct {
		name    string
		msg     wire.Message
		release func(wire.Message)
	}{
		{"", dense, func(m wire.Message) { wire.TrainReqPool.Put(m.Payload.(*wire.TrainReq)) }},
		{"packed_", packed, func(m wire.Message) {
			r := m.Payload.(*wire.TrainReply)
			quant.PutPacked(r.WFinalP)
			quant.PutPacked(r.WChkP)
			wire.TrainReplyPool.Put(r)
		}},
	} {
		var frame []byte
		var err error
		ns := p.nsPerCall("wire."+c.name+"encode", func() { frame, err = wire.AppendMessage(frame[:0], c.msg) })
		if err != nil {
			p.t.fail("wire.%sencode: %v", c.name, err)
			return
		}
		p.set("wire."+c.name+"encode_ns_byte", ns/float64(len(frame)), "ns")
		ns = p.nsPerCall("wire."+c.name+"decode", func() {
			var m wire.Message
			if m, err = wire.DecodeMessage(frame[4:], alloc, nil); err == nil {
				c.release(m)
			}
		})
		if err != nil {
			p.t.fail("wire.%sdecode: %v", c.name, err)
			return
		}
		p.set("wire."+c.name+"decode_ns_byte", ns/float64(len(frame)), "ns")
	}
}

// socketProbes push frames from a Peer to a Listener over loopback TCP:
// small frames for the per-frame cost, model-sized ones for throughput.
func (p *prober) socketProbes(s shape) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.t.fail("wire socket probe: %v", err)
		return
	}
	const fingerprint = 0xbe9c
	vecs := sync.Pool{New: func() any { return make([]float64, s.d) }}
	var received atomic.Int64
	arrived := make(chan struct{}, 1) // wake-up only; the count is in received
	lis := wire.NewListener(ln, wire.ListenerConfig{
		Fingerprint: fingerprint,
		Alloc:       func(d int) []float64 { return vecs.Get().([]float64)[:d] },
		OnMessage: func(m wire.Message) {
			switch r := m.Payload.(type) {
			case *wire.TrainReq:
				vecs.Put(r.W[:cap(r.W)])
				wire.TrainReqPool.Put(r)
			case *wire.LossReply:
				wire.LossReplyPool.Put(r)
			}
			received.Add(1)
			select {
			case arrived <- struct{}{}:
			default:
			}
		},
		OnError: func(err error) { p.t.fail("wire socket probe: %v", err) },
	})
	defer lis.Close()
	addr := ln.Addr().String()
	pool := wire.NewConnPool(func() (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		hello, err := wire.AppendHello(nil, wire.Hello{Role: wire.RoleEdge, Fingerprint: fingerprint})
		if err == nil {
			_, err = c.Write(hello)
		}
		if err != nil {
			c.Close()
			return nil, err
		}
		return c, nil
	}, wire.PoolConfig{})
	defer pool.Close()
	peer := wire.NewPeer(pool, wire.PeerConfig{})
	defer peer.Close()

	from, to := wire.NodeID{Kind: wire.Edge}, wire.NodeID{Kind: wire.Cloud}
	small := wire.Message{From: from, To: to, Kind: "loss-reply", Bytes: 8, Payload: &wire.LossReply{Loss: 1}}
	large := wire.Message{From: from, To: to, Kind: "train-req", Bytes: int64(8 * s.d),
		Payload: &wire.TrainReq{W: randVec(rng.New(15), s.d), Stream: rng.Root(16)}}
	const burst = 32 // frames per call, inside the peer's 64-frame queue
	var sent int64
	push := func(m wire.Message) func() {
		return func() {
			for i := 0; i < burst; i++ {
				peer.Send(m)
			}
			sent += burst
			for received.Load() < sent {
				<-arrived
			}
		}
	}
	p.set("wire.frame_us", p.nsPerCall("wire.frame", push(small))/burst/1e3, "us")
	frame, err := wire.AppendMessage(nil, large)
	if err != nil {
		p.t.fail("wire socket probe: %v", err)
		return
	}
	// bytes per nanosecond is GB/s; the metric is in MB/s.
	p.set("wire.stream_mbps", float64(burst*len(frame))/p.nsPerCall("wire.stream", push(large))*1e3, "MB/s")
}

func (p *prober) schedProbes(seed uint64, rounds int) {
	pool := sched.New(0)
	const jobs = 256
	ns := p.nsPerCall("sched.map", func() {
		if _, err := sched.Map(pool, "probe", jobs, func(i int) (int, error) { return i, nil }); err != nil {
			p.t.fail("sched.Map: %v", err)
		}
	})
	p.set("sched.map_us_job", ns/jobs/1e3, "us")

	// The five-algorithm grid on one worker and on GOMAXPROCS workers.
	grid := func(workers int) float64 {
		p.t.attempted++
		id, done := p.rec.open(0, fmt.Sprintf("probe sched.grid workers=%d", workers))
		defer done()
		t0 := time.Now()
		if _, err := runSweep(sched.New(workers), seed, rounds); err != nil {
			p.t.fail("sweep grid on %d workers: %v", workers, err)
		}
		p.rec.add(id, "call", t0, time.Now(), 1)
		return time.Since(t0).Seconds()
	}
	workers := runtime.GOMAXPROCS(0)
	grid(workers) // fills the dataset cache
	serial, parallel := grid(1), grid(workers)
	p.set("sched.runs_per_s", float64(len(experiments.AllAlgorithms))/parallel, "1/s")
	p.set("sched.parallel_efficiency", serial/(float64(workers)*parallel), "ratio")
}
