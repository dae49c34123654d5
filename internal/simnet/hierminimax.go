package simnet

import (
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fl"
	"repro/internal/obs"
	"repro/internal/quant"
	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/wire"
)

// Option adjusts the simnet engine.
type Option func(*engine)

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
// core's cloud round drives a fleet of actors over this package's
// transport — one goroutine per edge server and, with resident clients,
// one per client (a sparse population's clients are roster records its
// edges train through a fold). With no faults injected, the returned
// trajectory is bitwise-identical to core.HierMinimax with the same
// problem and config (asserted in tests); Config.DropoutProb drops the
// same slots as core does, since the round deciding it is core's.
// Transport-level faults — crashes, partitions, link loss, stragglers —
// come from WithChaos. Config.Compression compresses uplinks with the
// same stream keys and decode arithmetic as core, so compressed
// trajectories stay bitwise-identical too; the compressed payloads
// really cross the message fabric (and, in the wire runtimes, the
// sockets) as Packed structs, priced at their exact wire size.
func HierMinimax(prob *fl.Problem, cfg fl.Config, opts ...Option) (*fl.Result, RunStats, error) {
	e, err := newEngine(prob, cfg, opts)
	if err != nil {
		return nil, RunStats{}, err
	}
	e.start()
	h, t0 := obs.Get(), obs.Now()
	res, err := core.HierMinimaxOver("HierMinimax/simnet", prob, cfg, e)
	// Stop on both paths, and read the stats only after the actors have
	// drained: the control-message count and the pool's outstanding
	// figure (the leak check) are final only once the fleet is down.
	e.stop()
	if err != nil {
		return nil, RunStats{}, err
	}
	e.publishTimes(h, t0)
	return res, e.runStats(localStats(e.net)), nil
}

// engine is the simnet Transport plus the spawned actor fleet.
type engine struct {
	prob      *fl.Problem
	cfg       fl.Config
	chaos     *chaos.Schedule
	timeoutMs float64
	retries   int
	net       *Network
	inbox     <-chan Message
	top       topology.Topology
	wg        sync.WaitGroup
	simMs     float64
	// cohort is the population regime's straggler-scan scratch.
	cohort fl.Cohort
}

// newEngine builds the engine of one process of a run with opts applied.
// The timeout/retry policy is the schedule's when present, the defaults
// otherwise.
func newEngine(prob *fl.Problem, cfg fl.Config, opts []Option) (*engine, error) {
	e := &engine{prob: prob, cfg: cfg.WithDefaults()}
	for _, o := range opts {
		o(e)
	}
	if err := e.chaos.Validate(); err != nil {
		return nil, err
	}
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	e.timeoutMs = e.chaos.Timeout()
	if e.chaos != nil {
		e.retries = e.chaos.MaxRetries
	}
	e.top = prob.Topology()
	return e, nil
}

// publishTimes sets the simulated (latency-model) and real wall time of
// a run started at t0 on hub h, when there is one: the gap a future
// scheduling or perf change must attack.
func (e *engine) publishTimes(h *obs.Hub, t0 time.Time) {
	if h != nil {
		h.Registry().Gauge("simnet_simulated_ms").Set(e.simMs)
		h.Registry().Gauge("simnet_wall_ms").Set(float64(time.Since(t0)) / float64(time.Millisecond))
	}
}

// runStats reports the run's simulated clock with the protocol counters
// in s.
func (e *engine) runStats(s wire.Stats) RunStats {
	return RunStats{
		SimulatedMs:     e.simMs,
		MessagesSent:    s.Sent,
		MessagesLost:    s.Lost,
		ControlMessages: s.Ctrl,
		Timeouts:        s.Timeouts,
		Retries:         s.Retries,
		Crashes:         s.Crashes,
		PoolOutstanding: s.PoolOutstanding,
		PoolRecycled:    s.PoolRecycled,
		PoolAllocated:   s.PoolAllocated,
	}
}

// start builds the network, spawns every edge and client actor, and
// seals the route table — after this Send is lock-free.
func (e *engine) start() {
	e.net = NewNetwork()
	if e.chaos.Enabled() {
		// One hook applies the schedule's partitions and link loss; with
		// no schedule no hook is installed and Send keeps its
		// zero-overhead fault-free path.
		e.net.SetDrop(newFaultHook(e.chaos, e.top).drop)
	}
	// Cloud mailbox: phase fan-outs await at most SampledEdges replies
	// (real or nack).
	e.inbox = e.net.Register(NodeID{Kind: Cloud, Index: 0}, 2*e.cfg.SampledEdges+4)
	for edge := 0; edge < e.top.NumEdges; edge++ {
		a := e.newEdgeActor(edge)
		for c := range a.clients {
			ca := e.newClientActor(edge, c)
			e.wg.Add(1)
			go ca.run(&e.wg)
		}
		e.wg.Add(1)
		go a.run(&e.wg)
	}
	e.net.Seal()
}

// newEdgeActor builds the actor of edge on the engine's network and
// registers its request mailbox, which must hold a whole phase's
// requests to one edge in the duplicate-slot worst case, and its reply
// port. The edge addresses its area's resident clients; under a sparse
// population it has none, and its fold trains each round's roster cohort
// on a model pool of its own instead, in whichever process hosts it.
func (e *engine) newEdgeActor(edge int) *edgeActor {
	a := &edgeActor{
		id: NodeID{Kind: Edge, Index: edge}, port: NodeID{Kind: ReplyPort, Index: edge},
		net: e.net, cfg: &e.cfg, prob: e.prob, retries: e.retries,
	}
	a.inbox = e.net.Register(a.id, max(e.cfg.SampledEdges+2, 4))
	a.replies = e.net.Register(a.port, e.top.ClientsPerEdge+1)
	// Resident clients compress and keep their own EF residuals, so their
	// fold is begun once, here, with no cohort and the zero quant.Config:
	// no rows, accumulators sized at set-up. Roster edges begin per slot.
	a.fold.Begin(&e.cfg, e.prob, nil, quant.Config{})
	if e.cfg.PopulationEnabled() {
		a.fold.Cohort.Skip = a.crashed
		a.models, a.chaos = fl.NewModelPool(e.prob.Model), e.chaos
	}
	for c := range e.residents() {
		a.clients = append(a.clients, NodeID{Kind: Client, Index: e.top.ClientID(edge, c)})
	}
	return a
}

// residents returns the number of resident clients per edge area: none
// under a sparse population, whose clients are roster records.
func (e *engine) residents() int {
	if e.cfg.PopulationEnabled() {
		return 0
	}
	return e.top.ClientsPerEdge
}

// newClientActor builds the actor of client c of edge's area on the
// engine's network and registers its mailbox.
func (e *engine) newClientActor(edge, c int) *clientActor {
	id := NodeID{Kind: Client, Index: e.top.ClientID(edge, c)}
	return &clientActor{
		id:      id,
		net:     e.net,
		inbox:   e.net.Register(id, 2),
		shard:   e.prob.Fed.Areas[edge].Clients[c],
		model:   e.prob.Model.Clone(),
		track:   e.cfg.TrackAverages,
		comp:    e.cfg.Compression,
		chaos:   e.chaos,
		retries: e.retries,
	}
}

// stop terminates all actors and waits for them. Stops flow down the
// tree: the cloud stops its edges, and each edge stops its clients before
// it exits.
func (e *engine) stop() {
	for edge := 0; edge < e.top.NumEdges; edge++ {
		e.net.Send(Message{From: NodeID{Kind: Cloud, Index: 0}, To: NodeID{Kind: Edge, Index: edge}, Kind: "stop", Payload: stopMsg{}})
	}
	e.wg.Wait()
	e.net.Close()
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

// fanIn tallies one phase's requests and replies at the cloud: how many
// requests were delivered, whether a cloud-level deadline fired, and the
// client-edge traffic accounts riding back on the replies.
type fanIn struct {
	delivered, rounds, maxTB int
	msgs, bytes              int64
	missed                   bool
}

// request sends a cloud request carrying w to edge with the schedule's
// retries. When it is not delivered the cloud's deadline fires and w goes
// back to the arena; the caller recycles req.
func (e *engine) request(f *fanIn, k, edge int, kind string, w []float64, req any) bool {
	if e.net.SendRetry(Message{
		From: NodeID{Kind: Cloud, Index: 0}, To: NodeID{Kind: Edge, Index: edge}, Kind: kind,
		Round: k, Bytes: payloadBytes(w), Payload: req,
	}, e.retries) {
		f.delivered++
		return true
	}
	e.net.pool.put(w)
	f.timeout(e.net)
	return false
}

// timeout notes a deadline of the cloud's own fan-in.
func (f *fanIn) timeout(n *Network) {
	n.noteTimeout()
	f.missed = true
}

func (f *fanIn) add(a slotAcct) {
	f.rounds += 2 * a.Blocks
	f.msgs += a.DownMsgs + a.UpMsgs
	f.bytes += a.DownBytes + a.UpBytes
	f.maxTB = max(f.maxTB, a.TimeoutBlocks)
}

// settle writes the phase's client-edge traffic to l as one bulk line and
// adds the phase's fault charges to its simulated ms: one timeout window
// per block whose edge deadline fired (the deepest such slot gates the
// phase), and one more for a cloud-level miss.
func (f *fanIn) settle(l *topology.Ledger, ms, timeoutMs float64) float64 {
	if f.rounds > 0 || f.msgs > 0 {
		l.RecordBulk(topology.ClientEdge, f.rounds, f.msgs, f.bytes)
	}
	if f.maxTB > 0 {
		ms += timeoutMs * float64(f.maxTB)
	}
	if f.missed {
		ms += timeoutMs
	}
	return ms
}

// Train is Phase 1 on the fabric: one edge-train request per slot, then a
// fan-in that counts to the requests delivered. Fault handling follows
// the one-inbound-per-delivered-request invariant (see actors.go): a
// failed slot stays zero in out, like core's dropped slots, and the
// client-edge traffic each slot actually drove rides back on its reply.
func (e *engine) Train(k int, st *fl.State, slots, chk []int, streams []rng.Stream, doomed []bool, out []core.Slot) int {
	cfg, d, pool := &st.Cfg, len(st.W), e.net.pool
	var f fanIn
	for i, edge := range slots {
		w := pool.get(d)
		copy(w, st.W)
		req := edgeTrainReqPool.Get().(*edgeTrainReq)
		*req = edgeTrainReq{W: w, C1: chk[0], C2: chk[1], Slot: i, Stream: streams[i], Doomed: doomed[i]}
		if !e.request(&f, k, edge, "edge-train-req", w, req) {
			edgeTrainReqPool.Put(req)
		}
	}
	for recv := 0; recv < f.delivered; recv++ {
		msg := <-e.inbox
		r, ok := msg.Payload.(*edgeTrainReply)
		if !ok {
			panic("simnet: cloud expected edge train replies, got " + msg.Kind)
		}
		f.add(r.Acct)
		if !r.Failed {
			// Compressed edge uplinks are decoded into pooled vectors,
			// which Release returns like dense payloads.
			out[r.Slot] = core.Slot{
				W: pool.unpack(r.WEdge, r.WEdgeP, d), Chk: pool.unpack(r.WChk, r.WChkP, d),
				IterSum: r.IterSum, Iters: r.IterCount,
			}
		} else if !r.Doomed {
			// Lost uplink or partitioned edge: the cloud's own deadline
			// fired. (Doomed slots are algorithm-level dropout, not a
			// transport fault.)
			f.timeout(e.net)
		}
		edgeTrainReplyPool.Put(r)
	}
	// Simulated time: slots run in parallel and blocks inside a slot are
	// sequential, each priced by its transfers at the actual per-block
	// payload sizes. Fault charges ride on top, and active stragglers
	// stretch every block by the slowest delayed client.
	lat := DefaultLatency()
	// Uplinks are priced by fl.Config.UplinkBytes and downlinks travel
	// dense — identical to core's ledger pricing, and identical to the
	// Bytes the messages carried.
	dBytes := topology.ModelBytes(d)
	ms := lat.EdgeCloudCost(dBytes) + lat.EdgeCloudCost(cfg.UplinkBytes(d, true))
	for t2 := 0; t2 < cfg.Tau2; t2++ {
		ms += lat.ClientEdgeCost(dBytes) + lat.ClientEdgeCost(cfg.UplinkBytes(d, t2 == chk[1]))
	}
	ms = f.settle(st.Ledger, ms, e.timeoutMs)
	if straggle := e.maxStraggleMs(k, slots); straggle > 0 {
		ms += float64(cfg.Tau2) * straggle
	}
	e.simMs += ms
	return f.delivered
}

// Losses is Phase 2 on the fabric. Doomed edges answer with a real
// (8-byte, Failed) scalar — core accounts a Phase-2 uplink for every
// sampled edge, dead or alive — so arrived counts everything that crossed
// the wire while alive marks the usable estimates only.
func (e *engine) Losses(k int, st *fl.State, wChk []float64, sampled []int, streams []rng.Stream, doomed []bool, losses []float64, alive []bool) (int, int) {
	pool := e.net.pool
	var f fanIn
	for i, edge := range sampled {
		w := pool.get(len(wChk))
		copy(w, wChk)
		req := edgeLossReqPool.Get().(*edgeLossReq)
		*req = edgeLossReq{W: w, Seq: i, LossBatch: st.Cfg.LossBatch, Stream: streams[i], Doomed: doomed[i]}
		if !e.request(&f, k, edge, "edge-loss-req", w, req) {
			edgeLossReqPool.Put(req)
		}
	}
	arrived := 0
	for recv := 0; recv < f.delivered; recv++ {
		msg := <-e.inbox
		r, ok := msg.Payload.(*edgeLossReply)
		if !ok {
			panic("simnet: cloud expected edge loss replies, got " + msg.Kind)
		}
		f.add(r.Acct)
		if msg.Ctrl {
			f.timeout(e.net)
		} else {
			arrived++
		}
		if !r.Failed {
			losses[r.Seq], alive[r.Seq] = r.Loss, true
		}
		edgeLossReplyPool.Put(r)
	}
	dBytes := topology.ModelBytes(len(wChk))
	lat := DefaultLatency()
	ms := lat.EdgeCloudCost(dBytes) + lat.ClientEdgeCost(dBytes) +
		lat.ClientEdgeCost(8) + lat.EdgeCloudCost(8)
	ms = f.settle(st.Ledger, ms, e.timeoutMs)
	if straggle := e.maxStraggleMs(k, sampled); straggle > 0 {
		ms += straggle
	}
	e.simMs += ms
	return f.delivered, arrived
}

// Release returns the slots' payload vectors to the arena once the round
// has averaged them.
func (e *engine) Release(out []core.Slot) {
	for _, s := range out {
		e.net.pool.release(s.W, s.Chk, s.IterSum)
	}
}
