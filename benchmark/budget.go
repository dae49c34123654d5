package main

import (
	"fmt"
	"strings"

	"repro/internal/quant"
)

// calls counts the layer calls one training round makes (DESIGN.md §3):
// Phase 1 runs m_E slots of tau2 blocks of tau1 local steps on every
// client of the slot and averages after each block; Phase 2 has m_E edges
// estimate a loss on every client.
type calls struct {
	sgdSteps     float64 // local SGD steps, each one batch gradient and one d-sized axpy
	lossExamples float64 // examples evaluated by the Phase-2 loss estimates
	avgVectors   float64 // d-sized vectors read or written by the averages
	materialized float64 // population clients drawn and materialised
	packedVecs   float64 // d-sized vectors packed and unpacked on the uplinks
}

func (c *calls) add(o calls) {
	c.sgdSteps += o.sgdSteps
	c.lossExamples += o.lossExamples
	c.avgVectors += o.avgVectors
	c.materialized += o.materialized
	c.packedVecs += o.packedVecs
}

// algorithmCalls is one algorithm's round on the workload's topology.
func algorithmCalls(s shape, tau1, tau2 int, minimax bool) calls {
	clients := float64(s.mE * s.cohort)
	c := calls{sgdSteps: clients * float64(tau1*tau2)}
	// Each slot averages its clients once per block and once more for the
	// checkpoint; the cloud averages the m_E edge models and checkpoints.
	blocks := float64(tau2 + 1)
	c.avgVectors = clients*blocks + float64(s.mE)*blocks + 2*float64(s.mE) + 2
	c.packedVecs = clients*blocks + 2*float64(s.mE)
	if minimax {
		c.lossExamples = clients * float64(s.lossBatch)
	}
	return c
}

func roundCalls(w *workload, s shape) calls {
	var c calls
	if w.sweep {
		// The §6 protocol of the five jobs: FedAvg, Stochastic-AFL, DRFA,
		// HierFAvg, HierMinimax.
		c.add(algorithmCalls(s, s.tau1, 1, false))
		c.add(algorithmCalls(s, 1, 1, true))
		c.add(algorithmCalls(s, s.tau1, 1, true))
		c.add(algorithmCalls(s, s.tau1, s.tau2, false))
		c.add(algorithmCalls(s, s.tau1, s.tau2, true))
	} else {
		c = algorithmCalls(s, s.tau1, s.tau2, true)
	}
	if w.spec.Population > 0 {
		c.materialized = 2 * float64(s.mE*s.cohort) // once per phase
	}
	if w.spec.QuantBits == 0 {
		c.packedVecs = 0
	}
	return c
}

// budgetShares names the derived per-workload metrics in table order.
var budgetShares = []string{"compute", "sample", "aggregate", "quant", "codec", "socket", "unattributed"}

// budget prices one round of the workload from the probe costs in m and
// sets budget.<share>_share = probe cost x calls / cpu_ms_per_round. What
// the probes do not explain is budget.unattributed_share, never hidden.
// It returns the "where a round goes" table.
func budget(w *workload, s shape, m map[string]metric, cpuMs, wireBytes float64) string {
	v := func(name string) float64 { return m[name].Value }
	c := roundCalls(w, s)
	d := float64(s.d)
	grad, loss := v("model.linear_grad_ns_example"), v("model.linear_loss_ns_example")
	if s.mlp {
		grad, loss = v("model.mlp_grad_ns_example"), v("model.mlp_loss_ns_example")
	}
	ns := map[string]float64{}
	ns["compute"] = c.sgdSteps*(float64(s.batch)*grad+24*d/v("tensor.axpy_gbps")) + c.lossExamples*loss
	ns["sample"] = (c.sgdSteps*float64(s.batch)+c.lossExamples)*v("data.sample_into_ns") +
		c.materialized*(v("population.cohort_ns_client")+v("population.shard_into_ns"))
	ns["aggregate"] = 8 * d * c.avgVectors / v("tensor.average_gbps")
	ns["quant"] = c.packedVecs * d * (v("quant.pack_ns_elem") + v("quant.unpack_ns_elem"))
	if w.wire {
		// Every ledger byte is encoded once and decoded once; the packed
		// uplinks go through the packed codec path.
		packed := c.packedVecs * float64(quant.Config{Bits: w.spec.QuantBits}.VecWireBytes(s.d))
		dense := wireBytes - packed
		codecDense := v("wire.encode_ns_byte") + v("wire.decode_ns_byte")
		ns["codec"] = dense*codecDense + packed*(v("wire.packed_encode_ns_byte")+v("wire.packed_decode_ns_byte"))
		// stream_mbps includes the codec (the peer encodes, the listener
		// decodes); what is left per byte is the socket's.
		perByte := 1e3/v("wire.stream_mbps") - codecDense
		if perByte < 0 {
			perByte = 0
		}
		ns["socket"] = v("simnet.msgs_per_round")*v("wire.frame_us")*1e3 + wireBytes*perByte
	}

	var b strings.Builder
	fmt.Fprintf(&b, "# Where a round goes: %s\n\n", w.name)
	fmt.Fprintf(&b, "cpu_ms_per_round = %.4f ms (hub nil). Shares are probe cost x calls per round\n", cpuMs)
	fmt.Fprintf(&b, "(DESIGN.md §3) over that; probes run on the workload's own shapes\n")
	fmt.Fprintf(&b, "(d=%d, B=%d, m_E=%d, clients per slot=%d, tau1=%d, tau2=%d).\n\n", s.d, s.batch, s.mE, s.cohort, s.tau1, s.tau2)
	fmt.Fprintf(&b, "| share | ms per round | share of cpu_ms_per_round |\n|---|---|---|\n")
	explained := 0.0
	for _, name := range budgetShares {
		ms := ns[name] / 1e6
		share := ms / cpuMs
		if name == "unattributed" {
			share = 1 - explained
			ms = share * cpuMs
		}
		explained += share
		m["budget."+name+"_share"] = metric{share, "ratio"}
		fmt.Fprintf(&b, "| %s | %.4f | %.1f %% |\n", name, ms, 100*share)
	}
	fmt.Fprintf(&b, "\nCalls per round: %.0f SGD steps, %.0f loss examples, %.0f averaged vectors, %.0f materialised clients, %.0f packed vectors.\n",
		c.sgdSteps, c.lossExamples, c.avgVectors, c.materialized, c.packedVecs)
	return b.String()
}
