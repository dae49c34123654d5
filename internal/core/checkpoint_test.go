package core

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// The unbiasedness of the Phase-2 weight gradient (Appendix A) rests on
// the checkpoint slot c2*tau1 + c1 being uniform over [1, tau1*tau2] —
// on a deeper tree, on the vector's mixed-radix slot being uniform over
// [1, Prod(Taus)]. This test draws through the engine's own drawCheckpoint
// on the stream round uses and verifies the uniformity statistically, so
// a change to the sampling silently breaking the contract fails here.
func TestCheckpointIndexUniform(t *testing.T) {
	const rounds = 48000
	for _, taus := range [][]int{{3, 4}, {2, 3, 2}} {
		slots := prod(taus)
		root := rng.New(12345)
		chk := make([]int, len(taus))
		counts := make([]int, slots+1) // slots 1..Prod(taus)
		for k := 0; k < rounds; k++ {
			drawCheckpoint(root.ChildN('k', uint64(k)).Child(2), taus, chk)
			slot := 0
			for v := len(taus) - 1; v > 0; v-- {
				slot = (slot + chk[v]) * taus[v-1]
			}
			slot += chk[0]
			if slot < 1 || slot > slots {
				t.Fatalf("taus %v: slot %d outside [1, %d]", taus, slot, slots)
			}
			counts[slot]++
		}
		want := float64(rounds) / float64(slots)
		for slot := 1; slot <= slots; slot++ {
			if dev := math.Abs(float64(counts[slot]) - want); dev > 5*math.Sqrt(want) {
				t.Fatalf("taus %v: slot %d count %d deviates from uniform %v", taus, slot, counts[slot], want)
			}
		}
	}
}

// The Phase-1 edge sampling must follow p: over many rounds, the
// empirical sampling frequency of each edge converges to its weight.
func TestPhase1SamplingFollowsP(t *testing.T) {
	p := []float64{0.4, 0.3, 0.2, 0.1}
	root := rng.New(777)
	const rounds = 20000
	const mE = 2
	counts := make([]float64, len(p))
	for k := 0; k < rounds; k++ {
		kr := root.ChildN('k', uint64(k))
		for _, e := range kr.Child(1).SampleWeighted(mE, p) {
			counts[e]++
		}
	}
	for e := range p {
		got := counts[e] / (rounds * mE)
		if math.Abs(got-p[e]) > 0.01 {
			t.Fatalf("edge %d sampled with frequency %v, want %v", e, got, p[e])
		}
	}
}
