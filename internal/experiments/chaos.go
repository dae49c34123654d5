package experiments

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/fl"
	"repro/internal/quant"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// simnetRun trains HierMinimax on the simnet engine over the convex
// workload with uplink compression comp, under client crashes at
// crashRate with link loss at a fifth of it and one retransmission, as
// real deployments would have (no faults at rate 0). Every rate shares
// one fault seed, so the crash sets are nested: raising the rate only
// adds faults.
func simnetRun(scale Scale, seed uint64, comp quant.Config, crashRate float64) (*fl.Result, simnet.RunStats, error) {
	setup := convexSetup(scale, seed)
	prob := fl.NewProblem(setup.Fed, setup.Model.Clone())
	cfg := setup.Base
	cfg.Compression = comp
	var opts []simnet.Option
	if crashRate > 0 {
		opts = append(opts, simnet.WithChaos(&chaos.Schedule{
			Seed:       seed + 7919,
			CrashProb:  crashRate,
			LossProb:   crashRate / 5,
			MaxRetries: 1,
		}))
	}
	out, stats, err := simnet.HierMinimax(prob, cfg, opts...)
	if err != nil {
		return nil, stats, fmt.Errorf("experiments: simnet HierMinimax (%s, crash rate %.2f): %w", comp.Name(), crashRate, err)
	}
	return out, stats, nil
}

// ChaosSweep is the worst-group-accuracy-vs-crash-rate table: how
// gracefully minimax fairness degrades when clients actually fail
// mid-training instead of participating politely. Each crash rate is an
// independent scheduler job over the shared cached workload; the
// simulated time grows with the rate through timeout charges.
func ChaosSweep(pool *sched.Pool, scale Scale, seed uint64) (*Table, error) {
	t := newTable("chaos", "Fault tolerance (HierMinimax, simnet engine, convex workload)", seed, nil,
		"crash_prob", "average", "worst", "variance", "crashes", "timeouts", "retries", "messages_lost", "simulated_ms")
	var jobs []job
	for _, rate := range []float64{0, 0.05, 0.1, 0.2, 0.3} {
		jobs = append(jobs, job{nil, func() ([]float64, error) {
			out, s, err := simnetRun(scale, seed, quant.Config{}, rate)
			if err != nil {
				return nil, err
			}
			return append(append([]float64{rate}, fair(out)...), float64(s.Crashes), float64(s.Timeouts),
				float64(s.Retries), float64(s.MessagesLost), s.SimulatedMs), nil
		}})
	}
	if err := t.fill(pool, jobs); err != nil {
		return nil, err
	}
	return t, nil
}

// compressionRegimes is the swept regime ladder for a d-dimensional
// model: the dense reference, the three uniform quantization widths
// (int16, int8 and the sub-byte 4-bit grid), and top-k sparsification
// with error feedback keeping 1/16 of the coordinates.
func compressionRegimes(d int) []quant.Config {
	return []quant.Config{{}, {Bits: 16}, {Bits: 8}, {Bits: 4}, {TopK: max(d/16, 1), ErrorFeedback: true}}
}

// compression is the worst-group-accuracy-vs-bytes-on-wire table: the
// communication–computation trade-off the hierarchical design targets,
// priced with the exact compressed wire sizes the ledger charges. Every
// regime runs twice, clean and under crashes at rate 0.1, so the table
// also shows that compression composes with fault injection.
// wire_bytes is the ledger total over both links, uplinks and
// downlinks; compression shrinks only the uplinks, so the dense
// downlink broadcasts set the floor of bytes_ratio, the run's bytes
// over the dense run of the same leg.
func compression(pool *sched.Pool, scale Scale, seed uint64) (*Table, error) {
	t := newTable("compression", "Compression (HierMinimax, simnet engine, convex workload)", seed,
		[]string{"regime", "faulted"}, append(fairCols, "wire_bytes", "crashes", "messages_lost", "bytes_ratio")...)
	regimes := compressionRegimes(convexSetup(scale, seed).Model.Dim())
	var jobs []job
	for _, rate := range []float64{0, 0.1} {
		for _, comp := range regimes {
			jobs = append(jobs, job{[]string{comp.Name(), fmt.Sprint(rate > 0)}, func() ([]float64, error) {
				out, s, err := simnetRun(scale, seed, comp, rate)
				if err != nil {
					return nil, err
				}
				return append(fair(out), float64(out.Ledger.Bytes[topology.ClientEdge]+out.Ledger.Bytes[topology.EdgeCloud]),
					float64(s.Crashes), float64(s.MessagesLost)), nil
			}})
		}
	}
	if err := t.fill(pool, jobs); err != nil {
		return nil, err
	}
	for i, r := range t.Rows { // wire_bytes is column 3
		dense := t.Rows[i/len(regimes)*len(regimes)]
		t.Rows[i].Vals = append(r.Vals, r.Vals[3]/dense.Vals[3])
	}
	return t, nil
}
