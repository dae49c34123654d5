package hierfair

import (
	"fmt"
	"slices"

	"repro/internal/fl"
	"repro/internal/simnet"
)

// engine indexes the execution substrates of the regime table: the two
// Spec.Engine values Run accepts. The distributed roles host the simnet
// engine's actors over TCP, so simnet's column decides for them too.
type engine int

const (
	inProcess engine = iota
	simNet
	numEngines
)

var (
	engines     = map[Engine]engine{EngineInProcess: inProcess, EngineSimNet: simNet}
	engineNames = [numEngines]string{"the in-process engine", "the simnet engine"}

	algorithms = []Algorithm{AlgHierMinimax, AlgHierFAvg, AlgFedAvg, AlgAFL, AlgDRFA}
	hierOnly   = []Algorithm{AlgHierMinimax}
)

// regime is one row of the regime table: a family of Spec knobs and, per
// engine, the algorithms that implement it.
type regime struct {
	knobs string           // the Spec fields, as refusals name them
	what  string           // the regime, as refusals phrase it ("" for the engine itself)
	set   func(*Spec) bool // whether a Spec selects the regime
	runs  perEngine
}

type perEngine [numEngines][]Algorithm

// regimes decides, in one place, which algorithm runs which Spec regime
// on which engine: plan refuses by name every regime a Spec selects that
// its algorithm does not implement there, and README's regime matrix is
// rendered from it. The last row holds for every Spec, so a knob's own
// refusal reads first. Checks that depend on arithmetic stay with their
// owners: core.Tree's shape and depth rules, fl.Config.Validate's knob
// ranges, the baselines' Tau checks.
var regimes = []regime{
	{"QuantBits/TopK", "uplink compression", func(s *Spec) bool { return s.QuantBits != 0 || s.TopK != 0 }, perEngine{hierOnly, hierOnly}},
	{"DropoutProb", "slot dropout", func(s *Spec) bool { return s.DropoutProb != 0 }, perEngine{hierOnly, hierOnly}},
	{"CheckpointOff", "the end-of-round checkpoint ablation", func(s *Spec) bool { return s.CheckpointOff }, perEngine{hierOnly, hierOnly}},
	{"Chaos", "fault injection", func(s *Spec) bool { return s.Chaos != (Chaos{}) }, perEngine{nil, hierOnly}},
	{"Branching/Taus", "multi-layer trees", func(s *Spec) bool { return len(s.Branching)+len(s.Taus) != 0 }, perEngine{hierOnly, nil}},
	{"Engine", "", func(*Spec) bool { return true }, perEngine{algorithms, hierOnly}},
}

// plan is the step every entry point takes first: it fills the Spec's
// defaults, refuses by name any regime its algorithm does not implement
// on the engine (simnet's, named the distributed roles, when roles is
// set), and builds the problem, the engine config and the fault options.
func (s *Spec) plan(roles bool) (*fl.Problem, fl.Config, []simnet.Option, error) {
	if err := s.normalize(); err != nil {
		return nil, fl.Config{}, nil, err
	}
	e := engines[s.Engine]
	where := engineNames[e]
	if roles {
		e, where = simNet, "the distributed roles"
	}
	for _, r := range regimes {
		if !r.set(s) || slices.Contains(r.runs[e], s.Algorithm) {
			continue
		}
		if r.what == "" {
			return nil, fl.Config{}, nil, fmt.Errorf("hierfair: %s does not run on %s", s.Algorithm, where)
		}
		return nil, fl.Config{}, nil, fmt.Errorf("hierfair: %s does not implement %s (Spec.%s) on %s", s.Algorithm, r.what, r.knobs, where)
	}
	prob, cfg, err := s.buildProblem()
	if err != nil {
		return nil, fl.Config{}, nil, err
	}
	var opts []simnet.Option
	if s.Chaos != (Chaos{}) {
		sched := s.Chaos
		if sched.Seed == 0 {
			// The schedule roots its own stream tree; the offset only
			// makes the two seeds differ visibly in logs.
			sched.Seed = s.Seed + 7919
		}
		opts = []simnet.Option{simnet.WithChaos(&sched)}
	}
	return prob, cfg, opts, nil
}
