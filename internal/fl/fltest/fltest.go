// Package fltest holds the test helpers shared across packages: small,
// fast problem instances for the engine tests in internal/core,
// internal/baselines and internal/simnet, allocation probes, and checks
// on run results and trace journals. A helper that only one package's
// tests use lives in that package's _test.go files instead.
package fltest

import (
	"encoding/json"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/data"
	"repro/internal/fl"
	"repro/internal/model"
)

// ToyProfile is a 4-class, 10-feature prototype dataset in which class 3
// is strictly the hardest (confusable with class 2 and noise-boosted), so
// fairness interventions have a worst area to rescue.
func ToyProfile() data.ImageProfile {
	return data.ImageProfile{
		Name: "toy", Dim: 10, Classes: 4,
		Sep: 3.2, Noise: 1.0, ConfuseDist: 0.45,
		Confusable:   [][2]int{{2, 3}},
		NoisyClasses: []int{3}, NoiseBoost: 1.6,
	}
}

// ToyProblem returns a 4-area, 2-clients-per-area convex problem on the
// toy profile: one class per edge area, logistic regression.
func ToyProblem(seed uint64) *fl.Problem {
	return ToyProblemClients(seed, 2)
}

// ToyProblemClients is ToyProblem with a custom client count per area
// (used by the multi-layer tests, whose trees need composite counts).
func ToyProblemClients(seed uint64, clientsPerArea int) *fl.Problem {
	train, test := ToyProfile().Generate(40, 40, seed)
	fed := data.OneClassPerArea(train, test, clientsPerArea, seed+1)
	return fl.NewProblem(fed, model.NewLinear(10, 4))
}

// ToyMLPProblem is the non-convex variant of ToyProblem.
func ToyMLPProblem(seed uint64) *fl.Problem {
	train, test := ToyProfile().Generate(40, 40, seed)
	fed := data.OneClassPerArea(train, test, 2, seed+1)
	return fl.NewProblem(fed, model.NewMLP(10, 12, 8, 4))
}

// ToyConfig returns a configuration that trains the toy problem to a
// reasonable accuracy in well under a second.
func ToyConfig() fl.Config {
	return fl.Config{
		Rounds:       200,
		Tau1:         2,
		Tau2:         2,
		EtaW:         0.04,
		EtaP:         0.0005,
		BatchSize:    4,
		LossBatch:    8,
		SampledEdges: 2,
		Seed:         7,
		EvalEvery:    20,
	}
}

// WideProblem is ToyProblem at the paper's logistic-regression size
// (784 features, 10 one-class areas, d = 7850) on a corpus small enough
// that a round is dominated by model-sized vector work: the shape on
// which a model-sized allocation per round is visible.
func WideProblem(seed uint64) *fl.Problem {
	p := ToyProfile()
	p.Dim, p.Classes = 784, 10
	train, test := p.Generate(12, 4, seed)
	fed := data.OneClassPerArea(train, test, 2, seed+1)
	return fl.NewProblem(fed, model.NewLinear(784, 10))
}

// PooledAllocs is testing.AllocsPerRun (which holds the process to one
// P) with the collector paused, so sync.Pool always hands back what was
// put and a steady-state figure of 0 is a property of the code. Under
// the race detector sync.Pool drops items at random, so the test is
// skipped.
func PooledAllocs(t testing.TB, runs int, f func()) float64 {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(runs, f)
}

// WarmRoundBytes returns the bytes one warm training round allocates:
// the slope of runtime.MemStats.TotalAlloc between runs of 4 and 12
// rounds, which cancels everything a run allocates once (problem state,
// evaluation snapshots, pool warm-up). The collector is paused and the
// process held to one P so that sync.Pool always hands back what was put
// (a collection empties the pools; a goroutine that migrates misses its
// old P's private slot) and the figure is a property of the code, not of
// scheduling. Under the race detector sync.Pool drops items at random, so
// the test is skipped.
func WarmRoundBytes(t testing.TB, run func(rounds int)) float64 {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	total := func(rounds int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(rounds)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	run(4) // warm the process-wide pools
	return (float64(total(12)) - float64(total(4))) / 8
}

// AllFinite reports whether every element of x is finite.
func AllFinite(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// TraceLine is the parsed form of one obs.Tracer journal line.
type TraceLine struct {
	Type  string         `json:"type"`
	Name  string         `json:"name"`
	TUs   int64          `json:"t_us"`
	DurUs int64          `json:"dur_us"`
	Attrs map[string]any `json:"attrs"`
}

// ReadTrace parses a JSONL journal produced by an obs.Tracer.
func ReadTrace(r io.Reader) ([]TraceLine, error) {
	var out []TraceLine
	dec := json.NewDecoder(r)
	for {
		var ln TraceLine
		if err := dec.Decode(&ln); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, err
		}
		out = append(out, ln)
	}
}
