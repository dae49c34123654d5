package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	hierfair "repro"
	"repro/internal/baselines"
	"repro/internal/fl"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// legRounds sizes a traced engine leg: n rounds at the default measuring
// time, scaled with -seconds, and five under -quick.
func (o options) legRounds(n int) int {
	if o.quick {
		return 5
	}
	return max(20, int(float64(n)*o.seconds/10))
}

// leg runs fn under the hub as one operation and returns its round
// timings; an error is a failed operation and leaves no timings.
func (p *prober) leg(name string, fn func() error) traced {
	p.t.attempted++
	tr, err := tracedRun(p.rec, 0, "leg "+name, fn)
	if err != nil {
		p.t.fail("leg %s: %v", name, err)
		return traced{}
	}
	if len(tr.roundMs) == 0 {
		p.t.fail("leg %s published no round events", name)
	}
	return tr
}

// tail sets <prefix>_p50 and <prefix>_p99, the latter being the highest
// percentile up to 99 that still has ten samples beyond it.
func (p *prober) tail(prefix string, roundMs []float64) {
	p.set(prefix+"_p50", median(roundMs), "ms")
	if len(roundMs) == 0 {
		p.set(prefix+"_p99", median(roundMs), "ms")
		return
	}
	pct, v := tailPercentile(roundMs, 99)
	if pct != 99 {
		fmt.Fprintf(os.Stderr, "%s_p99: %d rounds only resolve p%d\n", prefix, len(roundMs), pct)
	}
	p.set(prefix+"_p99", v, "ms")
}

// engineLegs runs the base spec once per engine under the hub, so one
// invocation holds comparable per-round timings of the in-process engine,
// the actor fabric and the socket runtimes, plus the ratios between them.
func (p *prober) engineLegs(o options) {
	base := baseSpec(o.seed)
	run := func(name string, spec hierfair.Spec, rounds int, wire bool) (*hierfair.Report, traced) {
		var rep *hierfair.Report
		spec.Rounds = rounds
		tr := p.leg(name, func() (err error) {
			if wire {
				rep, err = wireReport(spec)
			} else {
				rep, err = hierfair.Run(spec)
			}
			return err
		})
		if rep == nil {
			rep = &hierfair.Report{}
		}
		return rep, tr
	}
	n := o.legRounds(1010)
	_, core := run("core", base, n, false)
	p.tail("core.round_ms", core.roundMs)
	p.set("core.round_gap_us", median(core.gapUs), "us")

	sim := base
	sim.Engine = hierfair.EngineSimNet
	rep, simnet := run("simnet", sim, n, false)
	p.tail("simnet.round_ms", simnet.roundMs)
	p.set("simnet.msgs_per_round", float64(rep.MessagesSent)/float64(n), "count")
	p.set("simnet.pool_alloc_ratio", float64(rep.PoolAllocated)/float64(rep.PoolAllocated+rep.PoolRecycled), "ratio")
	p.set("simnet.sim_ms_per_round", rep.SimulatedMs/float64(n), "ms")
	p.set("simnet.over_core_ratio", median(simnet.roundMs)/median(core.roundMs), "ratio")

	chaos := sim
	chaos.Chaos = hierfair.Chaos{CrashProb: .1, LossProb: .05, PartitionProb: .05, MaxRetries: 2}
	nc := o.legRounds(300)
	rep, faulty := run("simnet chaos", chaos, nc, false)
	p.set("simnet.chaos_round_ms", median(faulty.roundMs), "ms")
	p.set("simnet.chaos_retries_per_round", float64(rep.Retries)/float64(nc), "count")
	p.set("simnet.chaos_timeouts_per_round", float64(rep.Timeouts)/float64(nc), "count")

	_, dense := run("wire dense", base, n, true)
	p.tail("wire.round_ms", dense.roundMs)
	p.set("wire.over_simnet_ratio", median(dense.roundMs)/median(simnet.roundMs), "ratio")
	q8 := base
	q8.QuantBits = 8
	_, packed := run("wire q8", q8, o.legRounds(120), true)
	p.set("wire.q8_over_dense_ratio", median(packed.roundMs)/median(dense.roundMs), "ratio")

	// The in-process engine under every kernel class; a class the CPU lacks
	// runs its bit-identical pure-Go twin. Swaps happen between runs only.
	for _, c := range tensor.Classes() {
		restore := tensor.SetKernel(c)
		_, tr := run("core "+c.String(), base, o.legRounds(120), false)
		restore()
		p.set("tensor.class_round_ms."+c.String(), median(tr.roundMs), "ms")
	}
}

// baselineLegs prices one round of each baseline on the sweep's problem:
// time from the round events, allocations from a Rounds=1 and a Rounds=n
// run of the same configuration.
func (p *prober) baselineLegs(o options) {
	n := o.legRounds(1000)
	for _, b := range []struct {
		name       string
		tau1, tau2 int
		run        func(*fl.Problem, fl.Config) (*fl.Result, error)
	}{
		{"fedavg", 2, 1, baselines.FedAvg},
		{"afl", 1, 1, baselines.StochasticAFL},
		{"drfa", 2, 1, baselines.DRFA},
		{"hierfavg", 2, 2, baselines.HierFAvg},
	} {
		var roundMs []float64
		mallocs := func(rounds int) float64 {
			setup := sweepSetup(o.seed, rounds)
			cfg := setup.Base
			cfg.Tau1, cfg.Tau2, cfg.EvalEvery = b.tau1, b.tau2, 0
			prob := fl.NewProblem(setup.Fed, setup.Model.Clone())
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			tr := p.leg(fmt.Sprintf("%s K=%d", b.name, rounds), func() error {
				_, err := b.run(prob, cfg)
				return err
			})
			runtime.ReadMemStats(&m1)
			roundMs = tr.roundMs
			return float64(m1.Mallocs - m0.Mallocs)
		}
		one := mallocs(1)
		p.set("baselines."+b.name+"_allocs_round", slope(mallocs(n), one, n), "count")
		p.set("baselines."+b.name+"_round_ms", median(roundMs), "ms")
	}
}

// tracedMetrics is the traced invocation: the workload's long run without
// and with the hub (their ratio is the tracing overhead), the probes on
// the workload's shapes, the engine legs, and the budget derived from
// them. Spans and the budget table go to benchmark/out.
func tracedMetrics(w *workload, o options, t *tally) map[string]metric {
	if obs.Get() != nil {
		t.fail("obs hub installed before the traced run started")
		return nil
	}
	rec := newRecorder(w.name, o.seed)
	root, rootDone := rec.open(0, "workload "+w.name)
	k := o.rounds(w)
	spanned := func(name string, rounds int) (cost, outcome, bool) {
		_, done := rec.open(root, name)
		defer done()
		return timedRun(w, rounds, t)
	}
	if _, _, ok := spanned("warm-up", max(1, k/4)); !ok {
		return nil
	}
	var setups []cost
	for i := 0; i < min(3, o.setupRuns()); i++ {
		c, _, ok := spanned("setup", 1)
		if !ok {
			return nil
		}
		setups = append(setups, c)
	}
	setup := medianCost(setups)
	plain, out, ok := spanned("run", k)
	if !ok || !checkReference(w, k, &out, t) {
		return nil
	}
	t.attempted++
	hub, err := tracedRun(rec, root, "run", func() error {
		again, err := w.run(k)
		if err == nil && again.hash != out.hash {
			err = fmt.Errorf("traced run hashes %x, untraced %x: the hub changed the trajectory", again.hash, out.hash)
		}
		return err
	})
	if err != nil {
		t.fail("%s traced run: %v", w.name, err)
		return nil
	}
	rootDone()

	dur := time.Duration(o.seconds / 60 * float64(time.Second))
	if o.quick {
		dur = 2 * time.Millisecond
	}
	p := &prober{rec: rec, dur: dur, metrics: map[string]metric{}, t: t}
	p.set("obs.hub_over_nil_ratio", slope(hub.wall, setup.wall, k)/slope(plain.wall, setup.wall, k), "ratio")
	p.set("run.worst_acc", out.worst, "fraction")
	p.set("run.alloc_kb_per_round", slope(plain.bytes, setup.bytes, k)/1024, "KiB")
	s := shapeOf(w, o.seed)
	p.tensorProbes(s)
	p.modelProbes(s)
	p.flProbes(s)
	p.dataProbes(s)
	p.quantProbes(s)
	p.populationProbes(s, o.seed)
	p.simnetSendProbe()
	p.codecProbes(s)
	p.socketProbes(s)
	p.schedProbes(o.seed, o.legRounds(150))
	p.engineLegs(o)
	p.baselineLegs(o)

	cpuMs := slope(plain.cpu, setup.cpu, k) * 1e3
	table := budget(w, s, p.metrics, cpuMs, float64(out.bytes)/float64(k))
	err = os.MkdirAll(outDir, 0o755)
	if err == nil {
		err = os.WriteFile(filepath.Join(outDir, "budget-"+w.name+".md"), []byte(table), 0o644)
	}
	if err == nil {
		err = rec.write(filepath.Join(outDir, "trace-"+w.name+".jsonl"))
	}
	if err != nil {
		t.fail("writing the traced run's files: %v", err)
	}
	return p.metrics
}
