// Package invariance_test pins the exact floating-point trajectories of
// every training engine on the fltest fixtures, per kernel class. The
// dispatch ladder (tensor.KernelClass) defines two rounding regimes:
// the non-FMA regime (generic, and sse2, which binds the same bodies)
// pinned by testdata/trajectories.json, and the FMA regime (avx2, one
// rounding per multiply-add, and avx2f32, which binds the same bodies)
// pinned by testdata/trajectories_avx2.json. Any change to the
// arithmetic order of the hot path (kernels, batching, parallel
// reductions) shows up here as a hash mismatch in the affected regime.
// Regenerate both files deliberately with
// `go test ./internal/invariance -update` after an intentional
// trajectory change — update mode forces each regime in turn, so one
// run on any machine rewrites them all.
package invariance_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/baselines"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fl"
	"repro/internal/fl/fltest"
	"repro/internal/quant"
	"repro/internal/simnet"
	"repro/internal/tensor"
	"repro/internal/topology"
)

var update = flag.Bool("update", false, "rewrite testdata/trajectories*.json from the current code")

// hashResult digests everything trajectory-relevant in a Result: the
// final model and edge weights, the time averages when tracked, and every
// evaluation snapshot's weights and per-area accuracy.
func hashResult(res *fl.Result) string {
	h := sha256.New()
	writeF := func(xs []float64) {
		var buf [8]byte
		for _, x := range xs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	writeF(res.W)
	writeF(res.PWeights)
	writeF(res.WHat)
	writeF(res.PHat)
	for _, s := range res.History.Snapshots {
		writeF(s.P)
		writeF(s.Areas.Accuracy)
		writeF([]float64{float64(s.Round), float64(s.Slots)})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hashLedger digests the communication ledger of a Result — the final
// counters and every evaluation snapshot's — under its own golden key
// ("ledger/<case>"), so the trajectory hashes above stay what they were
// before ledgers were pinned.
func hashLedger(res *fl.Result) string {
	h := sha256.New()
	write := func(l topology.LedgerSnapshot) {
		binary.Write(h, binary.LittleEndian, l.Rounds[:])
		binary.Write(h, binary.LittleEndian, l.Messages[:])
		binary.Write(h, binary.LittleEndian, l.Bytes[:])
	}
	write(res.Ledger)
	for _, s := range res.History.Snapshots {
		write(s.Ledger)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hashStats digests the fault counters and simulated clock of a simnet
// run under its own golden key ("stats/<case>"): a chaos case's
// trajectory hash alone cannot see a crash noted twice or a timeout
// charged to the wrong block.
func hashStats(st simnet.RunStats) string {
	h := sha256.New()
	binary.Write(h, binary.LittleEndian, []int64{st.Crashes, st.Timeouts, st.Retries, st.MessagesSent, st.MessagesLost})
	binary.Write(h, binary.LittleEndian, math.Float64bits(st.SimulatedMs))
	return hex.EncodeToString(h.Sum(nil))
}

// cases enumerates the engine/config combinations whose trajectories are
// pinned. Every case must be a pure function of its seed and the active
// kernel class. A case that also pins its RunStats records the digest in
// stats under "stats/<case>".
func cases(stats map[string]string) map[string]func() (*fl.Result, error) {
	avgCfg := fltest.ToyConfig()
	avgCfg.TrackAverages = true

	mlpCfg := fltest.ToyConfig()
	mlpCfg.Rounds = 60

	chkOff := fltest.ToyConfig()
	chkOff.CheckpointOff = true

	twoLayer := fltest.ToyConfig()
	twoLayer.Tau2 = 1

	aflCfg := twoLayer
	aflCfg.Tau1 = 1

	quant8 := fltest.ToyConfig()
	quant8.Compression = quant.Config{Bits: 8}

	quant8Wide := quant8
	quant8Wide.Rounds = 40

	topkEF := fltest.ToyConfig()
	topkEF.Compression = quant.Config{TopK: 8, ErrorFeedback: true}

	// Sparse-population and tracked-average variants of the configs
	// above: every in-process engine's cohort path and wHat grouping.
	pop := func(c fl.Config) fl.Config {
		c.Population, c.SamplePerRound = 400, 6
		return c
	}
	avg := func(c fl.Config) fl.Config {
		c.TrackAverages = true
		return c
	}
	fourLayer := core.Tree{Branching: []int{2, 2, 4}, Taus: []int{2, 2, 2}}
	// The A1 ablation under slot dropout with tracked averages: core and
	// simnet must land on one hash.
	chkOffDropout := chkOff
	chkOffDropout.DropoutProb = 0.3
	chkOffDropout.TrackAverages = true
	// Every fault class at once, with retransmissions (the simnet chaos
	// tests' heavy schedule).
	heavy := func() *chaos.Schedule {
		return &chaos.Schedule{Seed: 99, CrashProb: 0.15, PartitionProb: 0.05, LossProb: 0.05,
			StragglerProb: 0.2, StragglerMs: 40, MaxRetries: 1}
	}

	return map[string]func() (*fl.Result, error){
		// One processor against the default fan-out width: one digest.
		"hierminimax-seq": func() (res *fl.Result, err error) {
			fltest.WithProcs(1, func() { res, err = core.HierMinimax(fltest.ToyProblem(3), fltest.ToyConfig()) })
			return res, err
		},
		"hierminimax-par": func() (*fl.Result, error) {
			return core.HierMinimax(fltest.ToyProblem(3), fltest.ToyConfig())
		},
		"hierminimax-avg": func() (*fl.Result, error) {
			return core.HierMinimax(fltest.ToyProblem(3), avgCfg)
		},
		"hierminimax-chkoff": func() (*fl.Result, error) {
			return core.HierMinimax(fltest.ToyProblem(3), chkOff)
		},
		"hierminimax-mlp": func() (*fl.Result, error) {
			return core.HierMinimax(fltest.ToyMLPProblem(5), mlpCfg)
		},
		"hierminimax-simnet": func() (*fl.Result, error) {
			res, _, err := simnet.HierMinimax(fltest.ToyProblem(3), fltest.ToyConfig())
			return res, err
		},
		// The simnet client actors' local step on the MLP (the model whose
		// first layer takes the fused step).
		"hierminimax-simnet-mlp": func() (*fl.Result, error) {
			res, _, err := simnet.HierMinimax(fltest.ToyMLPProblem(5), mlpCfg)
			return res, err
		},
		// The distributed runtime over loopback TCP must land on the same
		// trajectory hash as hierminimax-simnet: real sockets are pinned
		// to the same golden as the in-process engine.
		"hierminimax-wire": func() (*fl.Result, error) {
			res, _, err := simnet.RunWireLoopback(func() *fl.Problem { return fltest.ToyProblem(3) }, fltest.ToyConfig())
			return res, err
		},
		// The distributed roles on a sparse population: each edge runtime
		// trains its roster cohorts, so the hash is hierminimax-pop's.
		"hierminimax-wire-pop": func() (*fl.Result, error) {
			res, _, err := simnet.RunWireLoopback(func() *fl.Problem { return fltest.ToyProblem(3) }, pop(fltest.ToyConfig()))
			return res, err
		},
		"fedavg": func() (*fl.Result, error) {
			return baselines.FedAvg(fltest.ToyProblem(3), twoLayer)
		},
		"afl": func() (*fl.Result, error) {
			return baselines.StochasticAFL(fltest.ToyProblem(3), aflCfg)
		},
		"drfa": func() (*fl.Result, error) {
			return baselines.DRFA(fltest.ToyProblem(3), twoLayer)
		},
		"hierfavg": func() (*fl.Result, error) {
			return baselines.HierFAvg(fltest.ToyProblem(3), fltest.ToyConfig())
		},
		"hierminimax-pop": func() (*fl.Result, error) {
			return core.HierMinimax(fltest.ToyProblem(3), pop(fltest.ToyConfig()))
		},
		"fedavg-pop": func() (*fl.Result, error) {
			return baselines.FedAvg(fltest.ToyProblem(3), pop(twoLayer))
		},
		"afl-pop": func() (*fl.Result, error) {
			return baselines.StochasticAFL(fltest.ToyProblem(3), pop(aflCfg))
		},
		"drfa-pop": func() (*fl.Result, error) {
			return baselines.DRFA(fltest.ToyProblem(3), pop(twoLayer))
		},
		"hierfavg-pop": func() (*fl.Result, error) {
			return baselines.HierFAvg(fltest.ToyProblem(3), pop(fltest.ToyConfig()))
		},
		"fedavg-avg": func() (*fl.Result, error) {
			return baselines.FedAvg(fltest.ToyProblem(3), avg(twoLayer))
		},
		"afl-avg": func() (*fl.Result, error) {
			return baselines.StochasticAFL(fltest.ToyProblem(3), avg(aflCfg))
		},
		"drfa-avg": func() (*fl.Result, error) {
			return baselines.DRFA(fltest.ToyProblem(3), avg(twoLayer))
		},
		"hierfavg-avg": func() (*fl.Result, error) {
			return baselines.HierFAvg(fltest.ToyProblem(3), avg(fltest.ToyConfig()))
		},
		// The simnet edge actors' virtual cohorts: fault-free they land on
		// hierminimax-pop's hash; under TestSimnetPopulationChaosComposes's
		// crash-and-straggler schedule the trajectory, ledger and fault
		// counters are pinned on their own.
		"hierminimax-simnet-pop": func() (*fl.Result, error) {
			res, _, err := simnet.HierMinimax(fltest.ToyProblem(3), pop(fltest.ToyConfig()))
			return res, err
		},
		"hierminimax-simnet-pop-chaos": func() (*fl.Result, error) {
			sched := &chaos.Schedule{Seed: 11, CrashProb: 0.25, StragglerProb: 0.2, StragglerMs: 40}
			res, st, err := simnet.HierMinimax(fltest.ToyProblem(3), pop(fltest.ToyConfig()), simnet.WithChaos(sched))
			stats["stats/hierminimax-simnet-pop-chaos"] = hashStats(st)
			return res, err
		},
		// Resident actors under the heavy schedule: crashes, partitions,
		// loss with retries and stragglers, with iterate sums in flight.
		"hierminimax-simnet-chaos": func() (*fl.Result, error) {
			res, st, err := simnet.HierMinimax(fltest.ToyProblem(3), avgCfg, simnet.WithChaos(heavy()))
			stats["stats/hierminimax-simnet-chaos"] = hashStats(st)
			return res, err
		},
		"hierminimax-chkoff-dropout": func() (*fl.Result, error) {
			return core.HierMinimax(fltest.ToyProblem(3), chkOffDropout)
		},
		"hierminimax-simnet-chkoff-dropout": func() (*fl.Result, error) {
			res, _, err := simnet.HierMinimax(fltest.ToyProblem(3), chkOffDropout)
			return res, err
		},
		// Trees deeper than the paper's three layers: a mid-tier level
		// (4 layers), two of them (5 layers), and slot dropout on the first.
		"hierminimax-4layer": func() (*fl.Result, error) {
			return core.HierMinimaxTree(fltest.ToyProblemClients(3, 4), fltest.ToyConfig(), fourLayer)
		},
		// Tracked averages on a mid-tier level: W, p and the round counts
		// are hierminimax-4layer's; wHat and the uplink bytes are its own.
		"hierminimax-4layer-avg": func() (*fl.Result, error) {
			return core.HierMinimaxTree(fltest.ToyProblemClients(3, 4), avgCfg, fourLayer)
		},
		"hierminimax-4layer-dropout": func() (*fl.Result, error) {
			cfg := fltest.ToyConfig()
			cfg.DropoutProb = 0.3
			return core.HierMinimaxTree(fltest.ToyProblemClients(3, 4), cfg, fourLayer)
		},
		"hierminimax-5layer": func() (*fl.Result, error) {
			cfg := fltest.ToyConfig()
			cfg.Rounds = 60
			return core.HierMinimaxTree(fltest.ToyProblemClients(3, 8), cfg,
				core.Tree{Branching: []int{2, 2, 2, 4}, Taus: []int{1, 2, 2, 2}})
		},
		// Compression regimes are pinned per kernel class like everything
		// else. The simnet and wire cases must land on the same
		// hash as their core twins; recording all three pins the
		// cross-engine equality into the fixtures themselves.
		"hierminimax-quant8": func() (*fl.Result, error) {
			return core.HierMinimax(fltest.ToyProblem(3), quant8)
		},
		"hierminimax-topk-ef": func() (*fl.Result, error) {
			return core.HierMinimax(fltest.ToyProblem(3), topkEF)
		},
		// The toy model's d = 44 is a multiple of four; at d = 7850 the
		// packed vectors also end in elements past the last full quad.
		"hierminimax-quant8-wide": func() (*fl.Result, error) {
			return core.HierMinimax(fltest.WideProblem(3), quant8Wide)
		},
		"hierminimax-pop-quant8": func() (*fl.Result, error) {
			return core.HierMinimax(fltest.ToyProblem(3), pop(quant8))
		},
		// Population x top-k error feedback: the residual rows are Fold's,
		// one per cohort position, in core and in the simnet edge alike.
		"hierminimax-pop-topk-ef": func() (*fl.Result, error) {
			return core.HierMinimax(fltest.ToyProblem(3), pop(topkEF))
		},
		"hierminimax-simnet-pop-topk-ef": func() (*fl.Result, error) {
			res, _, err := simnet.HierMinimax(fltest.ToyProblem(3), pop(topkEF))
			return res, err
		},
		"hierminimax-simnet-quant8": func() (*fl.Result, error) {
			res, _, err := simnet.HierMinimax(fltest.ToyProblem(3), quant8)
			return res, err
		},
		// The cloud decodes Packed edge uplinks while other slots fail.
		"hierminimax-simnet-quant8-chaos": func() (*fl.Result, error) {
			res, st, err := simnet.HierMinimax(fltest.ToyProblem(3), quant8, simnet.WithChaos(heavy()))
			stats["stats/hierminimax-simnet-quant8-chaos"] = hashStats(st)
			return res, err
		},
		// Resident clients hold their own error-feedback residuals; a
		// lost block-0 request carries the previous slot's residual
		// forward. The schedule must really fire for that to be pinned.
		"hierminimax-simnet-topk-ef-chaos": func() (*fl.Result, error) {
			res, st, err := simnet.HierMinimax(fltest.ToyProblem(3), topkEF, simnet.WithChaos(heavy()))
			if err == nil && (st.Crashes == 0 || st.Retries == 0) {
				err = fmt.Errorf("heavy schedule did not fire: %d crashes, %d retries", st.Crashes, st.Retries)
			}
			stats["stats/hierminimax-simnet-topk-ef-chaos"] = hashStats(st)
			return res, err
		},
		"hierminimax-wire-topk-ef": func() (*fl.Result, error) {
			res, _, err := simnet.RunWireLoopback(func() *fl.Problem { return fltest.ToyProblem(3) }, topkEF)
			return res, err
		},
	}
}

// goldenFile maps a kernel class to the fixture pinning its rounding
// regime. generic and sse2 share one file, avx2 and avx2f32 the other —
// TestSSE2BindsGeneric and TestAVX2F32BindsAVX2 (in internal/tensor) and
// TestCrossClassGoldens below keep that sharing honest.
func goldenFile(c tensor.KernelClass) string {
	if c == tensor.KernelAVX2 || c == tensor.KernelAVX2F32 {
		return "testdata/trajectories_avx2.json"
	}
	return "testdata/trajectories.json"
}

func runAll(t *testing.T) map[string]string {
	t.Helper()
	got := map[string]string{}
	for name, run := range cases(got) {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = hashResult(res)
		got["ledger/"+name] = hashLedger(res)
	}
	return got
}

func writeGolden(t *testing.T, path string, got map[string]string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ordered := make(map[string]string, len(got))
	for _, k := range keys {
		ordered[k] = got[k]
	}
	blob, err := json.MarshalIndent(ordered, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", path)
}

func readGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to record): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

func TestTrajectoriesMatchGolden(t *testing.T) {
	if *update {
		// Regenerate every rounding regime regardless of the active
		// class: the pure-Go fallbacks make every class bit-reproducible
		// on any machine.
		for _, c := range []tensor.KernelClass{tensor.KernelGeneric, tensor.KernelAVX2} {
			restore := tensor.SetKernel(c)
			writeGolden(t, goldenFile(c), runAll(t))
			restore()
		}
		return
	}

	got := runAll(t)
	want := readGolden(t, goldenFile(tensor.ActiveKernel()))
	for name, g := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no golden recorded (run with -update)", name)
			continue
		}
		if g != w {
			t.Errorf("%s: trajectory hash %s != golden %s — the floating-point trajectory changed (kernel class %s)",
				name, g, w, tensor.ActiveKernel())
		}
	}
	// A pin no case produces is a case deleted or renamed without its
	// golden: fail rather than let the stale digest hide the dropped pin.
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: golden recorded in %s but no case produces it (rename or delete the pin with -update)",
				name, goldenFile(tensor.ActiveKernel()))
		}
	}
}

// TestCrossClassGoldens forces each dispatch rung in turn on a cheap
// case pair and checks it against that rung's golden: sse2 and generic
// must land on the identical (non-FMA) hash, avx2 and avx2f32 on the
// identical FMA one. This is the in-process proof that a forced kernel class —
// not the hardware it happens to run on — determines the trajectory.
func TestCrossClassGoldens(t *testing.T) {
	quick := []string{"hierminimax-seq", "fedavg"}
	all := cases(map[string]string{})
	for _, c := range []tensor.KernelClass{tensor.KernelGeneric, tensor.KernelSSE2, tensor.KernelAVX2, tensor.KernelAVX2F32} {
		want := readGolden(t, goldenFile(c))
		restore := tensor.SetKernel(c)
		for _, name := range quick {
			res, err := all[name]()
			if err != nil {
				restore()
				t.Fatalf("%s under %s: %v", name, c, err)
			}
			if got := hashResult(res); got != want[name] {
				t.Errorf("%s under forced %s: hash %s != class golden %s", name, c, got, want[name])
			}
		}
		restore()
	}
}
