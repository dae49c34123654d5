package simnet

import (
	"math"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/fl"
	"repro/internal/obs"
	"repro/internal/optim"
	"repro/internal/quant"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/topology"
)

// Option adjusts the simnet engine.
type Option func(*engine)

// WithLatency installs a latency cost model for simulated-time
// accounting; without it the default metropolitan model is used.
func WithLatency(l Latency) Option {
	return func(e *engine) { e.lat = l }
}

// WithDrop installs a message-drop hook (failure injection). Dropped
// requests simply exclude the target from the round's aggregation; the
// run stays live. Composes with WithChaos: the schedule's faults are
// applied first, then the hook.
func WithDrop(f DropFunc) Option {
	return func(e *engine) { e.drop = f }
}

// WithChaos installs a deterministic fault schedule: client crashes,
// edge partitions, link loss and straggler delay, all derived from the
// schedule's own seed (see chaos.Schedule). Every fan-in runs a
// simulated-clock timeout, so the protocol aggregates whatever quorum
// arrived and always completes; the schedule's MaxRetries and TimeoutMs
// configure retransmissions and the per-miss deadline charge. nil (or a
// zero schedule) injects nothing and leaves the trajectory
// bitwise-identical to the fault-free run.
func WithChaos(s *chaos.Schedule) Option {
	return func(e *engine) { e.chaos = s }
}

// WithCompute models heterogeneous client compute (Castiglia et al.'s
// heterogeneous operating rates): each client runs one SGD step in
// perStepMs milliseconds scaled by a log-normal speed factor with the
// given sigma (0 = homogeneous). Speeds affect only the simulated-time
// accounting, never the trajectory — synchronous aggregation waits for
// the slowest client, which is exactly the straggler cost the paper's
// hierarchical design amortizes over tau1*tau2 local slots.
func WithCompute(perStepMs, stragglerSigma float64) Option {
	return func(e *engine) {
		e.computeMs = perStepMs
		e.stragglerSigma = stragglerSigma
	}
}

// RunStats reports distributed-execution metrics of a simnet run.
type RunStats struct {
	// SimulatedMs is the modeled wall-clock time of the whole run under
	// the latency model (critical-path accounting), including timeout
	// and straggler charges under a fault schedule.
	SimulatedMs float64
	// MessagesSent and MessagesLost count protocol messages only;
	// ControlMessages counts the actor-lifecycle and timeout-nack
	// traffic excluded from them (see Network.Sent/Lost/Control).
	MessagesSent, MessagesLost int64
	ControlMessages            int64
	// Fault-handling counters. Timeouts counts fan-in deadlines that
	// fired (one per missing reply, at whichever aggregation level
	// noticed the gap); Retries counts retransmissions of dropped
	// protocol messages; Crashes counts work requests ignored by
	// crashed clients.
	Timeouts, Retries, Crashes int64
	// Payload-pool health: PoolOutstanding is the number of pooled
	// vectors still checked out after shutdown (must be 0 — anything
	// else is a payload leak); PoolRecycled and PoolAllocated show how
	// much weight traffic was served by reuse vs fresh allocation.
	PoolOutstanding, PoolRecycled, PoolAllocated int64
}

// HierMinimax runs Algorithm 1 as a message-passing distributed system:
// one goroutine per client, per edge server, and the cloud driver. With
// no faults injected, the returned trajectory is bitwise-identical to
// core.HierMinimax with the same problem and config (asserted in
// tests); Config.DropoutProb drops the same slots as core does on the
// same seed (both engines decide via fl.SlotDropped). Transport-level
// faults — crashes, partitions, link loss, stragglers — come from
// WithChaos. Config.Compression compresses uplinks with the same stream
// keys and decode arithmetic as core, so compressed trajectories stay
// bitwise-identical too; the compressed payloads really cross the
// message fabric (and, in the wire runtimes, the sockets) as Packed
// structs, priced at their exact wire size.
func HierMinimax(prob *fl.Problem, cfg fl.Config, opts ...Option) (*fl.Result, RunStats, error) {
	e := &engine{prob: prob, cfg: cfg.WithDefaults(), lat: DefaultLatency()}
	for _, o := range opts {
		o(e)
	}
	if err := e.chaos.Validate(); err != nil {
		return nil, RunStats{}, err
	}
	// Timeout/retry policy: the schedule's when present, defaults
	// otherwise (plain WithDrop losses are charged the default deadline).
	e.timeoutMs = e.chaos.Timeout()
	if e.chaos != nil {
		e.retries = e.chaos.MaxRetries
	}
	if err := e.start(); err != nil {
		return nil, RunStats{}, err
	}
	h := obs.Get()
	t0 := obs.Now()
	res, err := fl.Run("HierMinimax/simnet", prob, cfg, e.round)
	// Stop on both paths, and read the stats only after the actors have
	// drained: the control-message count and the pool's outstanding
	// figure (the leak check) are final only once the fleet is down.
	e.stop()
	if err != nil {
		return nil, RunStats{}, err
	}
	if h != nil {
		// Simulated (latency-model) vs. real wall time, the gap a future
		// scheduling/perf PR must attack.
		h.Registry().Gauge("simnet_simulated_ms").Set(e.simMs)
		h.Registry().Gauge("simnet_wall_ms").Set(float64(time.Since(t0)) / float64(time.Millisecond))
	}
	pool := e.net.pool
	return res, RunStats{
		SimulatedMs:     e.simMs,
		MessagesSent:    e.net.Sent(),
		MessagesLost:    e.net.Lost(),
		ControlMessages: e.net.Control(),
		Timeouts:        e.net.Timeouts(),
		Retries:         e.net.Retries(),
		Crashes:         e.net.Crashes(),
		PoolOutstanding: pool.Outstanding(),
		PoolRecycled:    pool.Recycled(),
		PoolAllocated:   pool.Allocated(),
	}, nil
}

// engine is the cloud-side driver plus the spawned actor fleet.
type engine struct {
	prob           *fl.Problem
	cfg            fl.Config
	lat            Latency
	drop           DropFunc
	chaos          *chaos.Schedule
	timeoutMs      float64
	retries        int
	computeMs      float64
	stragglerSigma float64
	net            *Network
	inbox          <-chan Message
	top            topology.Topology
	wg             sync.WaitGroup
	simMs          float64
	// cohort is the population regime's straggler-scan scratch.
	cohort fl.Cohort
	// areaSlowest[e] is the slowest client speed factor in area e (the
	// synchronous block time is gated by it).
	areaSlowest []float64

	// Round-resident scratch, sized on first use and reused every round
	// so the cloud driver's steady state allocates no model-sized
	// buffers (the payload vectors themselves live in net.pool).
	results []*edgeTrainReply
	wVecs   [][]float64
	chkVecs [][]float64
	wChk    []float64
	losses  []float64
	alive   []bool
	v       []float64
}

// start builds the network, spawns every edge and client actor, and
// seals the route table — after this Send is lock-free.
func (e *engine) start() error {
	if err := e.prob.Validate(); err != nil {
		return err
	}
	e.top = e.prob.Topology()
	e.net = NewNetwork()
	if e.chaos.Enabled() || e.drop != nil {
		// One hook composes the schedule's partitions and link loss with
		// the user hook; when neither is active no hook is installed and
		// Send keeps its zero-overhead fault-free path.
		e.net.SetDrop(newFaultHook(e.chaos, e.drop, e.top).drop)
	}
	e.computeAreaSlowest()
	// Cloud mailbox: phase fan-outs await at most SampledEdges replies
	// (real or nack). Edge mailboxes must hold a whole phase's requests
	// to one edge in the duplicate-slot worst case.
	e.inbox = e.net.Register(NodeID{Kind: Cloud, Index: 0}, 2*e.cfg.SampledEdges+4)
	edgeBuf := max(e.cfg.SampledEdges+2, 4)
	models := fl.NewModelPool(e.prob.Model) // shared by the edges' folds
	for edge := 0; edge < e.top.NumEdges; edge++ {
		id := NodeID{Kind: Edge, Index: edge}
		port := NodeID{Kind: ReplyPort, Index: edge}
		a := &edgeActor{
			id:      id,
			port:    port,
			net:     e.net,
			inbox:   e.net.Register(id, edgeBuf),
			replies: e.net.Register(port, e.top.ClientsPerEdge+1),
			cfg:     &e.cfg,
			prob:    e.prob,
			retries: e.retries,
		}
		if e.cfg.PopulationEnabled() {
			// Sparse population: the edge drives its round cohorts through
			// an fl.Fold, and nothing is spawned per registered client.
			a.fold = new(fl.Fold)
			a.fold.Cohort.Skip = a.crashed
			a.models, a.chaos = models, e.chaos
		}
		for c := 0; c < e.top.ClientsPerEdge && a.fold == nil; c++ {
			ca := e.newClientActor(e.net, e.top, edge, c)
			a.clients = append(a.clients, ca.id)
			e.wg.Add(1)
			go ca.run(&e.wg)
		}
		e.wg.Add(1)
		go a.run(&e.wg)
	}
	e.net.Seal()
	return nil
}

// newClientActor builds the actor of client c of edge's area on nw and
// registers its mailbox.
func (e *engine) newClientActor(nw *Network, top topology.Topology, edge, c int) *clientActor {
	id := NodeID{Kind: Client, Index: top.ClientID(edge, c)}
	return &clientActor{
		id:      id,
		net:     nw,
		inbox:   nw.Register(id, 2),
		shard:   e.prob.Fed.Areas[edge].Clients[c],
		model:   e.prob.Model.Clone(),
		wSet:    e.prob.W,
		track:   e.cfg.TrackAverages,
		comp:    e.cfg.Compression,
		chaos:   e.chaos,
		retries: e.retries,
	}
}

// computeAreaSlowest derives the per-client speed factors (log-normal)
// and reduces them to the per-area slowest, which gates every
// synchronous block. The draws come from a dedicated child of the
// config seed, so the in-process engine and the distributed cloud (which
// hosts no clients but still charges the same simulated time) agree.
func (e *engine) computeAreaSlowest() {
	e.areaSlowest = make([]float64, e.top.NumEdges)
	sr := rng.New(e.cfg.Seed).Child('s')
	for edge := 0; edge < e.top.NumEdges; edge++ {
		slowest := 1.0
		for c := 0; c < e.top.ClientsPerEdge; c++ {
			speed := 1.0
			if e.stragglerSigma > 0 {
				speed = math.Exp(e.stragglerSigma * sr.NormFloat64())
			}
			if speed > slowest {
				slowest = speed
			}
		}
		e.areaSlowest[edge] = slowest
	}
}

// stop terminates all actors and waits for them.
func (e *engine) stop() {
	for edge := 0; edge < e.top.NumEdges; edge++ {
		e.net.Send(Message{From: NodeID{Kind: Cloud, Index: 0}, To: NodeID{Kind: Edge, Index: edge}, Kind: "stop", Payload: stopMsg{}})
		if e.cfg.PopulationEnabled() {
			continue // clients are roster records, not actors
		}
		for c := 0; c < e.top.ClientsPerEdge; c++ {
			e.net.Send(Message{From: NodeID{Kind: Cloud, Index: 0}, To: NodeID{Kind: Client, Index: e.top.ClientID(edge, c)}, Kind: "stop", Payload: stopMsg{}})
		}
	}
	e.wg.Wait()
	e.net.Close()
}

// sizeScratch readies the round-resident buffers for m slot/edge samples
// over an nE-area federation with d model parameters.
func (e *engine) sizeScratch(m, nE, d int) {
	if cap(e.results) < m {
		e.results = make([]*edgeTrainReply, m)
		e.wVecs = make([][]float64, 0, m)
		e.chkVecs = make([][]float64, 0, m)
		e.losses = make([]float64, m)
		e.alive = make([]bool, m)
	}
	e.results = e.results[:m]
	e.losses = e.losses[:m]
	e.alive = e.alive[:m]
	if cap(e.wChk) < d {
		e.wChk = make([]float64, d)
	}
	e.wChk = e.wChk[:d]
	if cap(e.v) < nE {
		e.v = make([]float64, nE)
	}
	e.v = e.v[:nE]
}

// maxStraggleMs returns the largest per-slot straggler delay across the
// clients of the given areas in round k (synchronous blocks wait for
// their slowest client, so only the maximum matters). 0 without an
// active straggler schedule.
func (e *engine) maxStraggleMs(k int, areas []int) float64 {
	if e.chaos == nil || e.chaos.StragglerProb <= 0 {
		return 0
	}
	maxMs := 0.0
	for _, area := range areas {
		if e.cfg.PopulationEnabled() {
			// Sparse population: only the round's sampled cohorts do work,
			// so only their straggler draws can stretch a block.
			e.cohort.SetEdge(&e.cfg, e.prob.Fed, k, area)
			for _, id := range e.cohort.IDs {
				if ms := e.chaos.StraggleMs(k, id); ms > maxMs {
					maxMs = ms
				}
			}
			continue
		}
		for c := 0; c < e.top.ClientsPerEdge; c++ {
			if ms := e.chaos.StraggleMs(k, e.top.ClientID(area, c)); ms > maxMs {
				maxMs = ms
			}
		}
	}
	return maxMs
}

// round is the cloud-side protocol for one HierMinimax training round,
// mirroring core's round step for step. Fault handling follows the
// one-inbound-per-delivered-request invariant (see actors.go): the
// fan-ins always count to the number of requests that were delivered,
// failed slots are excluded from the aggregation exactly like core's
// dropped slots, and the ledger records only traffic that actually
// happened (the per-slot accounting rides back on each reply).
func (e *engine) round(k int, st *fl.State) {
	cfg := &st.Cfg
	prob := st.Prob
	nE := prob.Fed.NumAreas()
	d := len(st.W)
	dBytes := topology.ModelBytes(d)
	pool := e.net.pool
	kr := st.Root.ChildVal('k').ChildVal(uint64(k))
	cloudID := NodeID{Kind: Cloud, Index: 0}
	track := cfg.TrackAverages

	// ---- Phase 1 ----
	s1 := kr.ChildVal(1)
	slots := s1.SampleWeighted(cfg.SampledEdges, st.P)
	cr := kr.ChildVal(2)
	c2 := cr.Intn(cfg.Tau2)
	c1 := 1 + cr.Intn(cfg.Tau1)
	e.sizeScratch(cfg.SampledEdges, nE, d)

	slotStream := kr.ChildVal(3)
	pending := 0
	delivered := 0
	cloudMiss := false
	for i, edge := range slots {
		// Same dropout stream derivation as core: Child peeks without
		// advancing, so the slot's work stream is unchanged by the check.
		ss := slotStream.ChildVal(uint64(i))
		doomed := cfg.DropoutProb > 0 && fl.SlotDropped(&ss, cfg.DropoutProb)
		w := pool.get(d)
		copy(w, st.W)
		req := edgeTrainReqPool.Get().(*edgeTrainReq)
		*req = edgeTrainReq{W: w, C1: c1, C2: c2, Slot: i, Stream: ss, Doomed: doomed}
		ok := e.net.SendRetry(Message{
			From: cloudID, To: NodeID{Kind: Edge, Index: edge}, Kind: "edge-train-req",
			Round: k, Bytes: payloadBytes(w), Payload: req,
		}, e.retries)
		if ok {
			pending++
			delivered++
		} else {
			pool.put(w)
			edgeTrainReqPool.Put(req)
			e.net.noteTimeout()
			cloudMiss = true
		}
	}
	st.Ledger.RecordRound(topology.EdgeCloud, delivered, dBytes)
	for i := range e.results {
		e.results[i] = nil
	}
	// Fan in: every delivered request yields exactly one reply or nack.
	// The client-edge traffic each slot actually drove rides back on the
	// reply's account and lands in the ledger as one bulk write.
	var ceRounds int
	var ceMsgs, ceBytes int64
	maxTB := 0
	for recv := 0; recv < pending; recv++ {
		msg := <-e.inbox
		r, ok := msg.Payload.(*edgeTrainReply)
		if !ok {
			panic("simnet: cloud expected edge train replies, got " + msg.Kind)
		}
		ceRounds += 2 * r.Acct.Blocks
		ceMsgs += r.Acct.DownMsgs + r.Acct.UpMsgs
		ceBytes += r.Acct.DownBytes + r.Acct.UpBytes
		if r.Acct.TimeoutBlocks > maxTB {
			maxTB = r.Acct.TimeoutBlocks
		}
		if r.Failed {
			if !r.Doomed {
				// Lost uplink or partitioned edge: the cloud's own
				// deadline fired. (Doomed slots are algorithm-level
				// dropout, not a transport fault.)
				e.net.noteTimeout()
				cloudMiss = true
			}
			edgeTrainReplyPool.Put(r)
			continue
		}
		e.results[r.Slot] = r
	}
	if ceRounds > 0 || ceMsgs > 0 {
		st.Ledger.RecordBulk(topology.ClientEdge, ceRounds, ceMsgs, ceBytes)
	}
	// Simulated time: slots run in parallel (critical path = the slot on
	// the slowest area); blocks inside a slot are sequential, and each
	// block waits for its slowest client's tau1 local steps. Transfer
	// costs use the actual per-block payload sizes. Fault charges ride
	// on top: every block whose edge deadline fired costs one timeout
	// window (the deepest such slot gates the phase), a cloud-level miss
	// costs one more, and active stragglers stretch every block by the
	// slowest delayed client.
	slowest := 1.0
	for _, edge := range slots {
		if s := e.areaSlowest[edge]; s > slowest {
			slowest = s
		}
	}
	blockCompute := float64(cfg.Tau1) * e.computeMs * slowest
	// Uplink model transfers travel compressed when a regime is on;
	// downlinks and iterate sums stay dense — identical to core's
	// ledger pricing, and identical to the Bytes the messages carried.
	upVec := dBytes
	if cfg.Compression.Enabled() {
		upVec = cfg.Compression.VecWireBytes(d)
	}
	ecUp := 2 * upVec
	if track {
		ecUp += dBytes
	}
	phase1Ms := e.lat.EdgeCloudCost(dBytes) + e.lat.EdgeCloudCost(ecUp)
	for t2 := 0; t2 < cfg.Tau2; t2++ {
		up := upVec
		if t2 == c2 {
			up += upVec
		}
		if track {
			up += dBytes
		}
		phase1Ms += e.lat.ClientEdgeCost(dBytes) + e.lat.ClientEdgeCost(up) + blockCompute
	}
	if maxTB > 0 {
		phase1Ms += e.timeoutMs * float64(maxTB)
	}
	if cloudMiss {
		phase1Ms += e.timeoutMs
	}
	if straggle := e.maxStraggleMs(k, slots); straggle > 0 {
		phase1Ms += float64(cfg.Tau2) * straggle
	}
	e.simMs += phase1Ms

	e.wVecs = e.wVecs[:0]
	e.chkVecs = e.chkVecs[:0]
	for _, r := range e.results {
		if r == nil {
			continue
		}
		// Compressed edge uplinks are decoded at the cloud into pooled
		// vectors; the cleanup below returns them like dense payloads.
		if r.WEdgeP != nil {
			v := pool.get(d)
			r.WEdgeP.UnpackInto(v)
			quant.PutPacked(r.WEdgeP)
			r.WEdgeP = nil
			r.WEdge = v
		}
		if r.WChkP != nil {
			v := pool.get(d)
			r.WChkP.UnpackInto(v)
			quant.PutPacked(r.WChkP)
			r.WChkP = nil
			r.WChk = v
		}
		e.wVecs = append(e.wVecs, r.WEdge)
		e.chkVecs = append(e.chkVecs, r.WChk)
		if st.WSum != nil {
			tensor.StorageAdd(st.WSum, r.IterSum)
			st.WCount += r.IterCount
		}
	}
	if len(e.wVecs) == 0 {
		return // every sampled slot failed this round; w and p carry over
	}
	st.Ledger.RecordRound(topology.EdgeCloud, len(e.wVecs), ecUp)
	tensor.AverageInto(st.W, e.wVecs...)
	fl.ProjectW(prob.W, st.W)
	tensor.AverageInto(e.wChk, e.chkVecs...)
	if cfg.CheckpointOff {
		copy(e.wChk, st.W)
	}
	// Aggregation done: the pooled reply payloads go back to the arena.
	for i, r := range e.results {
		if r == nil {
			continue
		}
		pool.put(r.WEdge)
		if r.WChk != nil {
			pool.put(r.WChk)
		}
		if r.IterSum != nil {
			pool.put(r.IterSum)
		}
		edgeTrainReplyPool.Put(r)
		e.results[i] = nil
	}

	// ---- Phase 2 ----
	ur := kr.ChildVal(4)
	sampled := ur.SampleUniform(cfg.SampledEdges, nE)
	lossStream := ur.ChildVal(5)
	pending = 0
	delivered = 0
	cloudMiss = false
	for i, edge := range sampled {
		es := lossStream.ChildVal(uint64(i))
		doomed := cfg.DropoutProb > 0 && fl.SlotDropped(&es, cfg.DropoutProb)
		w := pool.get(d)
		copy(w, e.wChk)
		req := edgeLossReqPool.Get().(*edgeLossReq)
		*req = edgeLossReq{W: w, Seq: i, LossBatch: cfg.LossBatch, Stream: es, Doomed: doomed}
		ok := e.net.SendRetry(Message{
			From: cloudID, To: NodeID{Kind: Edge, Index: edge}, Kind: "edge-loss-req",
			Round: k, Bytes: payloadBytes(w), Payload: req,
		}, e.retries)
		if ok {
			pending++
			delivered++
		} else {
			pool.put(w)
			edgeLossReqPool.Put(req)
			e.net.noteTimeout()
			cloudMiss = true
		}
	}
	st.Ledger.RecordRound(topology.EdgeCloud, delivered, dBytes)
	for i := range e.alive {
		e.losses[i] = 0
		e.alive[i] = false
	}
	// Fan in. Doomed edges answer with a real (8-byte, Failed) scalar —
	// core accounts a Phase-2 uplink for every sampled edge, dead or
	// alive — so arrived counts everything that crossed the wire while
	// alive tracks usable estimates only.
	arrived := 0
	ceRounds, ceMsgs, ceBytes = 0, 0, 0
	maxTB = 0
	for recv := 0; recv < pending; recv++ {
		msg := <-e.inbox
		r, ok := msg.Payload.(*edgeLossReply)
		if !ok {
			panic("simnet: cloud expected edge loss replies, got " + msg.Kind)
		}
		ceRounds += 2 * r.Acct.Blocks
		ceMsgs += r.Acct.DownMsgs + r.Acct.UpMsgs
		ceBytes += r.Acct.DownBytes + r.Acct.UpBytes
		if r.Acct.TimeoutBlocks > maxTB {
			maxTB = r.Acct.TimeoutBlocks
		}
		if msg.Ctrl {
			e.net.noteTimeout()
			cloudMiss = true
		} else {
			arrived++
		}
		if !r.Failed {
			e.losses[r.Seq] = r.Loss
			e.alive[r.Seq] = true
		}
		edgeLossReplyPool.Put(r)
	}
	if ceRounds > 0 || ceMsgs > 0 {
		st.Ledger.RecordBulk(topology.ClientEdge, ceRounds, ceMsgs, ceBytes)
	}
	st.Ledger.RecordRound(topology.EdgeCloud, arrived, 8)
	phase2Ms := e.lat.EdgeCloudCost(dBytes) + e.lat.ClientEdgeCost(dBytes) +
		e.lat.ClientEdgeCost(8) + e.lat.EdgeCloudCost(8)
	if maxTB > 0 {
		phase2Ms += e.timeoutMs * float64(maxTB)
	}
	if cloudMiss {
		phase2Ms += e.timeoutMs
	}
	if straggle := e.maxStraggleMs(k, sampled); straggle > 0 {
		phase2Ms += straggle
	}
	e.simMs += phase2Ms

	tensor.Zero(e.v)
	scale := float64(nE) / float64(cfg.SampledEdges)
	for i, edge := range sampled {
		if e.alive[i] {
			e.v[edge] += scale * e.losses[i]
		}
	}
	optim.AscentStep(st.P, e.v, cfg.EtaP*float64(cfg.SlotsPerRound()), prob.P)
}
