package simnet

import (
	"sync"

	"repro/internal/chaos"
	"repro/internal/data"
	"repro/internal/fl"
	"repro/internal/model"
	"repro/internal/quant"
	"repro/internal/rng"
	"repro/internal/simplex"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// Protocol messages — defined in internal/wire (shared with the TCP
// transport), aliased here so actor code reads unchanged. All payloads
// travel as pointers to structs recycled through the wire package's
// typed pools, and every []float64 inside them is drawn from the
// network's vecPool: a Send transfers ownership of the struct and its
// vectors to the receiver, which returns both after use (single-owner
// discipline, DESIGN.md §9). Streams are embedded by value so deriving
// a per-message stream allocates nothing.
//
// Fault handling rides on one invariant: every delivered request
// produces exactly one inbound message at its requester — the real
// reply, or a timeout nack (the same pooled reply struct with Failed
// set, sent as control traffic, modeling the requester's simulated
// fan-in deadline firing). Fan-ins therefore always count to the number
// of requests they delivered and can never stall, no matter which
// protocol messages the fault schedule eats (DESIGN.md §10).
type (
	trainReq       = wire.TrainReq
	trainReply     = wire.TrainReply
	lossReq        = wire.LossReq
	lossReply      = wire.LossReply
	slotAcct       = wire.SlotAcct
	edgeTrainReq   = wire.EdgeTrainReq
	edgeTrainReply = wire.EdgeTrainReply
	edgeLossReq    = wire.EdgeLossReq
	edgeLossReply  = wire.EdgeLossReply
	stopMsg        = wire.Stop
)

// The typed struct pools live in wire so a decoded frame and a local
// send recycle through the same free lists.
var (
	trainReqPool       = &wire.TrainReqPool
	trainReplyPool     = &wire.TrainReplyPool
	lossReqPool        = &wire.LossReqPool
	lossReplyPool      = &wire.LossReplyPool
	edgeTrainReqPool   = &wire.EdgeTrainReqPool
	edgeTrainReplyPool = &wire.EdgeTrainReplyPool
	edgeLossReqPool    = &wire.EdgeLossReqPool
	edgeLossReplyPool  = &wire.EdgeLossReplyPool
)

// payloadBytes is the actual wire size of a set of payload vectors —
// tensor.ElemBytes() per element (8 in the float64 regimes, 4 on the
// float32 storage tier, matching the codec's on-the-wire layout), nil
// vectors contribute nothing. All protocol messages report their true
// transfer size so the per-link byte counters and the latency model
// reflect what the round really moved.
func payloadBytes(vecs ...[]float64) int64 {
	elem := int64(tensor.ElemBytes())
	var n int64
	for _, v := range vecs {
		n += int64(len(v)) * elem
	}
	return n
}

// packedBytes is the priced wire size of a set of compressed payloads;
// nil entries contribute nothing. Compressed sizes are constant per
// regime (quant.Config.VecWireBytes), so the per-link byte counters
// stay exactly reproducible.
func packedBytes(ps ...*quant.Packed) int64 {
	var n int64
	for _, p := range ps {
		if p != nil {
			n += p.WireBytes()
		}
	}
	return n
}

// nackTrainReply releases the reply's pooled vectors back to the arena
// and converts it into a timeout nack: the struct itself travels on as
// control traffic (abandoned payloads must not leak — the vectors stay
// home, only the Failed flag and the stats fields cross the wire).
// These are functions rather than methods because the reply types are
// aliases into internal/wire.
func nackTrainReply(r *trainReply, pool *vecPool) {
	pool.release(r.WFinal, r.WChk, r.IterSum)
	r.WFinal, r.WChk, r.IterSum = nil, nil, nil
	quant.PutPacked(r.WFinalP)
	quant.PutPacked(r.WChkP)
	r.WFinalP, r.WChkP = nil, nil
	r.Failed = true
}

// nackEdgeTrainReply releases the edge reply's pooled vectors and marks
// it failed; the delivered-traffic account survives so the cloud's
// ledger stays exact even when the model itself was lost.
func nackEdgeTrainReply(r *edgeTrainReply, pool *vecPool) {
	pool.release(r.WEdge, r.WChk, r.IterSum)
	r.WEdge, r.WChk, r.IterSum = nil, nil, nil
	quant.PutPacked(r.WEdgeP)
	quant.PutPacked(r.WChkP)
	r.WEdgeP, r.WChkP = nil, nil
	r.IterCount = 0
	r.Failed = true
}

// clientActor owns one client's shard and model instance and serves
// train and loss requests until stopped. Its SGD scratch (gradient
// accumulator, batch views) is actor-resident: after the first request
// the serving hot path allocates nothing. Under a fault schedule the
// client consults its per-round crash decision before doing any work;
// a crashed client returns the request payload to the arena and nacks.
type clientActor struct {
	id    NodeID
	net   *Network
	inbox <-chan Message
	shard data.Subset
	model model.Model
	wSet  simplex.Set
	track bool // accumulate iterates for wHat
	comp  quant.Config
	// resid is the client's error-feedback residual (top-k + EF only).
	// It is slot-scoped like core's: reset on each slot's first
	// aggregation block (TrainReq.Block == 0). Under chaos a lost
	// block-0 request carries the previous slot's residual forward —
	// deterministic under the fault schedule, and identical between the
	// in-process and wire runtimes (same actor code on both).
	resid   []float64
	scratch fl.Scratch
	chaos   *chaos.Schedule
	retries int
	// straggle, when set, really delays the client before it serves a
	// round's training work (the TCP runtimes install it so scheduled
	// stragglers hold their socket, not just the simulated clock). It
	// must be trajectory-neutral: a pure delay, never a state change.
	straggle func(round int)
}

func (c *clientActor) run(wg *sync.WaitGroup) {
	defer wg.Done()
	pool := c.net.pool
	for msg := range c.inbox {
		switch req := msg.Payload.(type) {
		case *trainReq:
			if c.chaos.ClientCrashed(msg.Round, c.id.Index) {
				pool.put(req.W)
				client := req.Client
				trainReqPool.Put(req)
				c.net.noteCrash()
				reply := trainReplyPool.Get().(*trainReply)
				*reply = trainReply{Client: client, Failed: true}
				c.net.Send(Message{
					From: c.id, To: msg.From, Kind: "train-nack",
					Round: msg.Round, Ctrl: true, Payload: reply,
				})
				continue
			}
			if c.straggle != nil {
				c.straggle(msg.Round)
			}
			// The request's W is ours now; advance it in place and hand it
			// back as the final model.
			w := req.W
			var iterSum []float64
			if c.track {
				iterSum = pool.get(len(w))
				tensor.Zero(iterSum)
			}
			var wChk []float64
			if req.ChkAt > 0 {
				wChk = pool.get(len(w))
			}
			chked := fl.LocalSGDScratch(c.model, w, c.shard, req.Steps, req.Batch, req.Eta, c.wSet, &req.Stream, req.ChkAt, iterSum, wChk, &c.scratch)
			if !chked && wChk != nil {
				pool.put(wChk)
				wChk = nil
			}
			// Uplink compression: the model (and checkpoint) travel as
			// Packed payloads; the dense vectors go home. Stream keys
			// match core's — LocalSGD advanced req.Stream in place, so
			// ChildVal('q') here is core's post-SGD r.Child('q').
			var wp, chkp *quant.Packed
			if c.comp.Enabled() {
				var resid []float64
				if c.comp.ErrorFeedback {
					if len(c.resid) != len(w) {
						c.resid = make([]float64, len(w))
					} else if req.Block == 0 {
						tensor.Zero(c.resid)
					}
					resid = c.resid
				}
				qs := req.Stream.ChildVal('q')
				wp = quant.GetPacked()
				c.comp.Pack(wp, w, resid, &qs)
				pool.put(w)
				w = nil
				if wChk != nil {
					cs := req.Stream.ChildVal('q').ChildVal(2)
					chkp = quant.GetPacked()
					c.comp.Pack(chkp, wChk, nil, &cs)
					pool.put(wChk)
					wChk = nil
				}
			}
			client := req.Client
			trainReqPool.Put(req)
			reply := trainReplyPool.Get().(*trainReply)
			*reply = trainReply{Client: client, WFinal: w, WChk: wChk, WFinalP: wp, WChkP: chkp, IterSum: iterSum}
			ok := c.net.SendRetry(Message{
				From: c.id, To: msg.From, Kind: "train-reply",
				Round: msg.Round, Bytes: payloadBytes(w, wChk, iterSum) + packedBytes(wp, chkp), Payload: reply,
			}, c.retries)
			if !ok {
				nackTrainReply(reply, pool)
				c.net.Send(Message{
					From: c.id, To: msg.From, Kind: "train-nack",
					Round: msg.Round, Ctrl: true, Payload: reply,
				})
			}
		case *lossReq:
			if c.chaos.ClientCrashed(msg.Round, c.id.Index) {
				pool.put(req.W)
				client := req.Client
				lossReqPool.Put(req)
				c.net.noteCrash()
				reply := lossReplyPool.Get().(*lossReply)
				*reply = lossReply{Client: client, Failed: true}
				c.net.Send(Message{
					From: c.id, To: msg.From, Kind: "loss-nack",
					Round: msg.Round, Ctrl: true, Payload: reply,
				})
				continue
			}
			loss := fl.ShardLossEstimate(c.model, req.W, c.shard, req.Batch, &req.Stream, &c.scratch)
			pool.put(req.W)
			client := req.Client
			lossReqPool.Put(req)
			reply := lossReplyPool.Get().(*lossReply)
			*reply = lossReply{Client: client, Loss: loss}
			ok := c.net.SendRetry(Message{
				From: c.id, To: msg.From, Kind: "loss-reply",
				Round: msg.Round, Bytes: 8, Payload: reply,
			}, c.retries)
			if !ok {
				reply.Loss = 0
				reply.Failed = true
				c.net.Send(Message{
					From: c.id, To: msg.From, Kind: "loss-nack",
					Round: msg.Round, Ctrl: true, Payload: reply,
				})
			}
		case stopMsg:
			return
		default:
			panic("simnet: client received unknown message kind " + msg.Kind)
		}
	}
}

// edgeActor owns one edge area and runs Algorithm 1's ModelUpdate and
// LossEstimation for the slots the cloud sends it. Each block reaches the
// area's cohort through one of two sources — the resident client actors
// over the fabric, or under a sparse population the (round, edge) roster
// cohort its fold trains itself — and the members that deliver fold into
// the edge's fl.Fold in cohort order, so stream keys, fold order and
// survivor reweighting are core's slot by construction.
//
// Requests from the cloud arrive on the actor's main inbox; replies from
// clients arrive on a dedicated reply port, so a second queued cloud
// request can never be swallowed by a reply-await loop.
type edgeActor struct {
	id      NodeID
	port    NodeID // reply port clients answer to
	net     *Network
	inbox   <-chan Message
	replies <-chan Message
	clients []NodeID
	cfg     *fl.Config
	prob    *fl.Problem
	retries int
	fold    fl.Fold
	// A block's client replies by client index, so arrival order never
	// matters: they fold in client order.
	trains []*trainReply
	losses []*lossReply
	// Roster cohort only: the Fold's model clones and the schedule its
	// Skip consults for round.
	models *fl.ModelPool
	chaos  *chaos.Schedule
	round  int
}

func (e *edgeActor) run(wg *sync.WaitGroup) {
	defer wg.Done()
	pool := e.net.pool
	e.trains = make([]*trainReply, len(e.clients))
	e.losses = make([]*lossReply, len(e.clients))
	for msg := range e.inbox {
		switch req := msg.Payload.(type) {
		case *edgeTrainReq:
			round := msg.Round
			if req.Doomed {
				// Algorithm-level dropout: the slot fails before any
				// client-edge traffic, exactly like core's dropped slots.
				pool.put(req.W)
				slot := req.Slot
				edgeTrainReqPool.Put(req)
				reply := edgeTrainReplyPool.Get().(*edgeTrainReply)
				*reply = edgeTrainReply{Slot: slot, Failed: true, Doomed: true}
				e.net.Send(Message{
					From: e.id, To: msg.From, Kind: "edge-train-nack",
					Round: round, Ctrl: true, Payload: reply,
				})
				continue
			}
			reply := e.modelUpdate(req, round)
			edgeTrainReqPool.Put(req)
			ok := e.net.SendRetry(Message{
				From: e.id, To: msg.From, Kind: "edge-train-reply", Round: round,
				Bytes: payloadBytes(reply.WEdge, reply.WChk, reply.IterSum) +
					packedBytes(reply.WEdgeP, reply.WChkP), Payload: reply,
			}, e.retries)
			if !ok {
				nackEdgeTrainReply(reply, pool)
				e.net.Send(Message{
					From: e.id, To: msg.From, Kind: "edge-train-nack",
					Round: round, Ctrl: true, Payload: reply,
				})
			}
		case *edgeLossReq:
			round := msg.Round
			var loss float64
			var alive bool
			var acct slotAcct
			seq := req.Seq
			if req.Doomed {
				pool.put(req.W)
			} else {
				loss, alive, acct = e.lossEstimate(req, round)
			}
			doomed := req.Doomed
			edgeLossReqPool.Put(req)
			reply := edgeLossReplyPool.Get().(*edgeLossReply)
			*reply = edgeLossReply{Seq: seq, Loss: loss, Failed: !alive, Doomed: doomed, Acct: acct}
			// The scalar travels as a real 8-byte message even for doomed
			// edges — core accounts a Phase-2 uplink for every sampled
			// edge, dead or alive.
			ok := e.net.SendRetry(Message{
				From: e.id, To: msg.From, Kind: "edge-loss-reply",
				Round: round, Bytes: 8, Payload: reply,
			}, e.retries)
			if !ok {
				reply.Loss = 0
				reply.Failed = true
				e.net.Send(Message{
					From: e.id, To: msg.From, Kind: "edge-loss-nack",
					Round: round, Ctrl: true, Payload: reply,
				})
			}
		case stopMsg:
			return
		default:
			panic("simnet: edge received unknown message kind " + msg.Kind)
		}
	}
}

// roster reports whether the edge's cohort is the sparse population's
// roster cohort rather than resident client actors.
func (e *edgeActor) roster() bool { return e.models != nil }

// cohort readies round's cohort and returns its size: the resident
// client actors, or the roster's (round, edge) sample, which the fold
// then trains.
func (e *edgeActor) cohort(round int) int {
	if !e.roster() {
		return len(e.clients)
	}
	e.round = round
	e.fold.Cohort.SetEdge(e.cfg, e.prob.Fed, round, e.id.Index)
	return e.fold.Cohort.Len()
}

// modelUpdate runs a slot's tau2 client-edge aggregation blocks from
// req.W. Every block folds the members that delivered, and their mean
// becomes the projected edge model; block c2 also averages the members'
// checkpoints. A block with no survivors leaves the edge model unchanged
// and, in block c2, stands it in for the checkpoint, keeping Phase 2
// well-defined. The reply owns three pooled vectors (edge model,
// checkpoint, iterate sum); the cloud returns them after aggregating.
func (e *edgeActor) modelUpdate(req *edgeTrainReq, round int) *edgeTrainReply {
	cfg, pool, we := e.cfg, e.net.pool, req.W // we: ownership transferred with the message
	d := len(we)
	var chkEdge, iterSum []float64
	var iterCount float64
	acct := slotAcct{Blocks: cfg.Tau2}
	if cfg.TrackAverages {
		iterSum = pool.get(d)
		tensor.Zero(iterSum)
	}
	n := e.cohort(round)
	if e.roster() {
		e.fold.Begin(cfg, e.prob, e.models, cfg.Compression)
	}
	for t2 := 0; t2 < cfg.Tau2; t2++ {
		chkAt := 0
		if t2 == req.C2 {
			chkAt, chkEdge = req.C1, pool.get(d)
		}
		stream := req.Stream.ChildVal(uint64(t2))
		var survivors int
		if e.roster() {
			survivors = e.rosterBlock(&acct, we, stream, chkAt, iterSum)
		} else {
			survivors = e.clientBlock(round, t2, &acct, we, stream, chkAt, iterSum)
		}
		if survivors < n {
			acct.TimeoutBlocks++
		}
		iterCount += float64(survivors * cfg.Tau1)
		if e.fold.Finish(we, chkEdge) {
			fl.ProjectW(e.prob.W, we)
		} else if chkAt > 0 {
			copy(chkEdge, we)
		}
	}
	return e.slotReply(req, we, chkEdge, iterSum, iterCount, acct)
}

// clientBlock runs one block on the resident client actors: one train
// request per client, a fan-in that counts every delivered request
// (nacks fill the gaps left by crashes and lost replies), then the
// survivors fold in client order. Compressed replies are decoded into
// pooled vectors at the fan-in — exactly what core's in-place Apply
// leaves behind.
func (e *edgeActor) clientBlock(round, t2 int, acct *slotAcct, we []float64, stream rng.Stream, chkAt int, iterSum []float64) (survivors int) {
	pool := e.net.pool
	d := len(we)
	expected := 0
	for c := range e.clients {
		w := pool.get(d)
		copy(w, we)
		tr := trainReqPool.Get().(*trainReq)
		*tr = trainReq{
			W: w, Steps: e.cfg.Tau1, Batch: e.cfg.BatchSize, ChkAt: chkAt, Block: t2, Eta: e.cfg.EtaW,
			Stream: stream.ChildVal(uint64(c)), Client: c,
		}
		if e.request(round, c, "train-req", w, tr, acct) {
			expected++
		} else {
			trainReqPool.Put(tr)
		}
	}
	for recv := 0; recv < expected; recv++ {
		msg := <-e.replies
		r, ok := msg.Payload.(*trainReply)
		if !ok {
			panic("simnet: edge expected train replies, got " + msg.Kind)
		}
		if r.Failed {
			e.net.noteTimeout()
			trainReplyPool.Put(r)
			continue
		}
		acct.Up(msg.Bytes)
		r.WFinal = pool.unpack(r.WFinal, r.WFinalP, d)
		r.WChk = pool.unpack(r.WChk, r.WChkP, d)
		r.WFinalP, r.WChkP = nil, nil
		e.trains[r.Client] = r
	}
	for c, r := range e.trains {
		if r == nil {
			continue
		}
		e.fold.Add(r.WFinal, r.WChk, r.IterSum, iterSum)
		pool.release(r.WFinal, r.WChk, r.IterSum)
		trainReplyPool.Put(r)
		e.trains[c] = nil
		survivors++
	}
	return survivors
}

// rosterBlock runs one block on the roster cohort: a virtual fan-out
// accounted by fanOut, then one fl.Fold block, whose lanes skip the
// crashed members.
func (e *edgeActor) rosterBlock(acct *slotAcct, we []float64, stream rng.Stream, chkAt int, iterSum []float64) (survivors int) {
	down := payloadBytes(we)
	up := down
	if e.cfg.Compression.Enabled() {
		up = e.cfg.Compression.VecWireBytes(len(we))
	}
	if chkAt > 0 {
		up *= 2
	}
	if e.cfg.TrackAverages {
		up += down
	}
	survivors = e.fanOut(acct, down, up)
	e.fold.Block(we, stream, chkAt, iterSum)
	return survivors
}

// request sends client c one request carrying the pooled vector w and
// accounts its downlink. An undeliverable request (retries exhausted)
// returns w to the arena, counts a timeout and reports false; the caller
// recycles the request struct.
func (e *edgeActor) request(round, c int, kind string, w []float64, payload any, acct *slotAcct) bool {
	bytes := payloadBytes(w)
	if !e.net.SendRetry(Message{
		From: e.port, To: e.clients[c], Kind: kind,
		Round: round, Bytes: bytes, Payload: payload,
	}, e.retries) {
		e.net.pool.put(w)
		e.net.noteTimeout()
		return false
	}
	acct.Down(bytes)
	return true
}

// slotReply assembles a slot's reply to the cloud, taking ownership of
// the pooled we, chkEdge and iterSum. Under compression the edge packs
// the aggregated model and checkpoint (no error feedback — edge uplinks
// happen once per slot) with core's 'Q' stream keys; req.Stream was
// never advanced, so it is exactly core's slot stream.
func (e *edgeActor) slotReply(req *edgeTrainReq, we, chkEdge, iterSum []float64, iterCount float64, acct slotAcct) *edgeTrainReply {
	var weP, chkP *quant.Packed
	if e.cfg.Compression.Enabled() {
		pool := e.net.pool
		qs := req.Stream.ChildVal('Q').ChildVal(1)
		weP = quant.GetPacked()
		e.cfg.Compression.Pack(weP, we, nil, &qs)
		pool.put(we)
		we = nil
		if chkEdge != nil {
			cs := req.Stream.ChildVal('Q').ChildVal(2)
			chkP = quant.GetPacked()
			e.cfg.Compression.Pack(chkP, chkEdge, nil, &cs)
			pool.put(chkEdge)
			chkEdge = nil
		}
	}
	reply := edgeTrainReplyPool.Get().(*edgeTrainReply)
	*reply = edgeTrainReply{Slot: req.Slot, WEdge: we, WChk: chkEdge, WEdgeP: weP, WChkP: chkP, IterSum: iterSum, IterCount: iterCount, Acct: acct}
	return reply
}

// lossEstimate averages the cohort's mini-batch losses of req.W over
// the members that answered, with fl.CohortLossEstimate's stream keys
// and client-order sum (its 1/N0 average when everyone does). ok is
// false when no member answered.
func (e *edgeActor) lossEstimate(req *edgeLossReq, round int) (loss float64, ok bool, acct slotAcct) {
	acct.Blocks = 1
	n := e.cohort(round)
	got := 0
	if e.roster() {
		e.fanOut(&acct, payloadBytes(req.W), 8)
		m := e.models.Get()
		loss, got = e.fold.Cohort.LossEstimate(m, req.W, req.LossBatch, &req.Stream)
		e.models.Put(m)
		e.net.pool.put(req.W)
	} else {
		loss, got = e.clientLosses(req, round, &acct)
	}
	if got < n {
		acct.TimeoutBlocks = 1
	}
	return loss, got > 0, acct
}

// clientLosses is LossEstimation on the resident client actors: one
// loss request per client, releasing req.W once the requests carry
// their copies, and the answers summed in client order.
func (e *edgeActor) clientLosses(req *edgeLossReq, round int, acct *slotAcct) (loss float64, got int) {
	pool := e.net.pool
	d := len(req.W)
	expected := 0
	for c := range e.clients {
		w := pool.get(d)
		copy(w, req.W)
		lr := lossReqPool.Get().(*lossReq)
		*lr = lossReq{W: w, Batch: req.LossBatch, Stream: req.Stream.ChildVal(uint64(c)), Client: c}
		if e.request(round, c, "loss-req", w, lr, acct) {
			expected++
		} else {
			lossReqPool.Put(lr)
		}
	}
	pool.put(req.W)
	for recv := 0; recv < expected; recv++ {
		msg := <-e.replies
		r, isLoss := msg.Payload.(*lossReply)
		if !isLoss {
			panic("simnet: edge expected loss replies, got " + msg.Kind)
		}
		if r.Failed {
			e.net.noteTimeout()
			lossReplyPool.Put(r)
			continue
		}
		acct.Up(msg.Bytes)
		e.losses[r.Client] = r
	}
	total := 0.0
	for c, r := range e.losses {
		if r != nil {
			total += r.Loss
			got++
			lossReplyPool.Put(r)
			e.losses[c] = nil
		}
	}
	if got == 0 {
		return 0, 0
	}
	return total / float64(got), got
}

// crashed is the roster cohort's Skip: member i of the fold's cohort
// crashes in e.round. It is pure, so the fold's lanes may call it.
func (e *edgeActor) crashed(i int) bool {
	return e.chaos.ClientCrashed(e.round, e.fold.Cohort.IDs[i])
}

// fanOut accounts one virtual fan-out over the roster cohort and returns
// the number of members that deliver. Virtual broadcasts always arrive,
// so every member pays the downlink, like a resident client that gets
// the request and then crashes; only survivors pay the uplink. Virtual
// clients have no transport, so link faults never touch them.
func (e *edgeActor) fanOut(acct *slotAcct, down, up int64) (survivors int) {
	n := e.fold.Cohort.Len()
	for i := 0; i < n; i++ {
		acct.Down(down)
		if e.crashed(i) {
			e.net.noteCrash()
			e.net.noteTimeout()
			continue
		}
		acct.Up(up)
		survivors++
	}
	return survivors
}
