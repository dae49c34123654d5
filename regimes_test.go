package hierfair

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
)

// probe sets one regime's knobs to a value that bites in a six-round run.
// names lists the words a refusal of the probe must contain.
type probe struct {
	name  string
	set   func(*Spec)
	names []string
}

// regimeProbes holds, per regimes row (keyed by its knobs), the probes of
// TestEveryKnobChangesTheRunOrIsRefused. Two Spec knobs have no row and
// no probe: TrackAverages, because Report exposes no averaged iterates,
// so no Report digest can see it; and PCap, because the cap binds only
// once p moves, and the minimization methods never move p.
var regimeProbes = map[string][]probe{
	"QuantBits/TopK": {
		{"QuantBits=8", func(s *Spec) { s.QuantBits = 8 }, []string{"QuantBits", "compression"}},
		{"TopK=10", func(s *Spec) { s.TopK = 10 }, []string{"TopK", "compression"}},
	},
	"DropoutProb":   {{"DropoutProb=0.5", func(s *Spec) { s.DropoutProb = 0.5 }, []string{"DropoutProb"}}},
	"CheckpointOff": {{"CheckpointOff", func(s *Spec) { s.CheckpointOff = true }, []string{"CheckpointOff"}}},
	"Chaos":         {{"Chaos.CrashProb=0.5", func(s *Spec) { s.Chaos.CrashProb = 0.5 }, []string{"Chaos"}}},
	"Branching/Taus": {
		{"Branching+Taus", func(s *Spec) { s.Branching, s.Taus = []int{2, 2, 4}, []int{2, 2, 2} }, []string{"Branching", "Taus"}},
		{"Taus", func(s *Spec) { s.Taus = []int{2, 2} }, []string{"Taus"}},
	},
	"Engine": {{`Engine="wire"`, func(s *Spec) { s.Engine = "wire" }, []string{"Engine"}}},
}

// rowlessProbes bite knobs that have no regimes row because every
// algorithm runs them wherever it runs at all: Population with
// SamplePerRound.
var rowlessProbes = []probe{
	{"Population+SamplePerRound", func(s *Spec) { s.Population, s.SamplePerRound = 1000, 4 }, []string{"Population"}},
}

// probeSpec is a six-round synthetic run in alg's default shape whose
// four clients per area also fit a four-layer tree.
func probeSpec(alg Algorithm, e Engine) Spec {
	s := DefaultSpec(alg)
	s.Engine = e
	s.Dataset = DatasetSynthetic
	s.NumEdges, s.ClientsPerEdge, s.SampledEdges = 4, 4, 2
	s.Rounds, s.EvalEvery = 6, 3
	s.EtaW, s.EtaP = 0.05, 1
	s.BatchSize, s.LossBatch = 2, 4
	return s
}

// runDigest runs spec and hashes its (Parameters, TotalBytes).
func runDigest(spec Spec) (uint64, error) {
	rep, err := Run(spec)
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	var b [8]byte
	for _, v := range rep.Parameters() {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	binary.LittleEndian.PutUint64(b[:], uint64(rep.TotalBytes))
	h.Write(b[:])
	return h.Sum64(), nil
}

// TestEveryKnobChangesTheRunOrIsRefused: for every algorithm on both Run
// engines, a Spec knob set to a value that bites either changes the
// (Parameters, TotalBytes) digest or fails with an error that names it.
// A knob silently ignored is a different trajectory no golden can see.
func TestEveryKnobChangesTheRunOrIsRefused(t *testing.T) {
	for _, r := range regimes {
		if len(regimeProbes[r.knobs]) == 0 {
			t.Errorf("regime %s has no probe", r.knobs)
		}
	}
	for knobs := range regimeProbes {
		if !slices.ContainsFunc(regimes, func(r regime) bool { return r.knobs == knobs }) {
			t.Errorf("probes for %s, which is no regime row", knobs)
		}
	}
	probes := slices.Clone(rowlessProbes)
	for _, r := range regimes {
		probes = append(probes, regimeProbes[r.knobs]...)
	}
	for _, alg := range algorithms {
		for _, e := range []Engine{EngineInProcess, EngineSimNet} {
			base, baseErr := runDigest(probeSpec(alg, e))
			for _, p := range probes {
				spec := probeSpec(alg, e)
				p.set(&spec)
				got, err := runDigest(spec)
				switch {
				case err != nil && baseErr != nil && err.Error() == baseErr.Error():
					// The engine refuses the algorithm before any knob.
				case err != nil:
					if !slices.ContainsFunc(p.names, func(n string) bool { return strings.Contains(err.Error(), n) }) {
						t.Errorf("%s/%s with %s: error %q names none of %v", alg, e, p.name, err, p.names)
					}
				case baseErr != nil:
					t.Errorf("%s/%s with %s ran, but the plain spec fails: %v", alg, e, p.name, baseErr)
				case got == base:
					t.Errorf("%s/%s silently ignored %s", alg, e, p.name)
				}
			}
		}
	}
}

const (
	matrixBegin = "<!-- regime matrix: generated from regimes in regimes.go, checked by TestReadmeRegimeMatrix -->"
	matrixEnd   = "<!-- end of regime matrix -->"
)

// renderRegimeMatrix renders the regime table as README's markdown.
func renderRegimeMatrix() string {
	var b strings.Builder
	b.WriteString("| Spec regime |")
	for e, name := range engineNames {
		if engine(e) == simNet {
			name += " and the distributed roles"
		}
		b.WriteString(" " + strings.TrimPrefix(name, "the ") + " |")
	}
	b.WriteString("\n|" + strings.Repeat("---|", int(numEngines)+1) + "\n")
	for _, r := range regimes {
		what := r.what
		if what == "" {
			what = "any run"
		}
		b.WriteString("| " + what + " (`" + r.knobs + "`) |")
		for _, algs := range r.runs {
			cell := "—"
			if len(algs) > 0 {
				names := make([]string, len(algs))
				for i, a := range algs {
					names[i] = string(a)
				}
				cell = strings.Join(names, ", ")
			}
			b.WriteString(" " + cell + " |")
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestReadmeRegimeMatrix: README's regime matrix is the regime table.
func TestReadmeRegimeMatrix(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok1 := strings.Cut(string(readme), matrixBegin+"\n")
	got, _, ok2 := strings.Cut(rest, matrixEnd)
	if !ok1 || !ok2 {
		t.Fatalf("README.md lacks the regime matrix markers %q and %q", matrixBegin, matrixEnd)
	}
	if want := renderRegimeMatrix(); got != want {
		t.Fatalf("README.md's regime matrix drifted from regimes; replace it with\n%s", want)
	}
}
