package fl

import (
	"testing"

	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/simplex"
	"repro/internal/tensor"
)

// TestFoldSkip checks the Cohort's Skip predicate: a skipped position
// neither trains nor folds in, and the survivors' mean is exactly
// AverageInto over what those members produce on their own (a member's
// result depends only on its position), across a chunk boundary and
// with Sequential on and off. With every position skipped, Finish
// reports it and leaves w and chk untouched.
func TestFoldSkip(t *testing.T) {
	const n, chkAt = cohortChunk + 5, 2
	m := model.NewLinear(4, 2)
	d := m.Dim()
	clients := make([]data.Subset, n)
	for i := range clients {
		clients[i] = toyShard(uint64(10+i), 12)
	}
	start := make([]float64, d)
	rng.New(1).Fill(start, 0.2)
	streams := *rng.New(2)
	W := simplex.FullSpace{Dim: d}

	// Each member alone: its final model, checkpoint and iterate sum.
	finals, chks, sums := make([][]float64, n), make([][]float64, n), make([][]float64, n)
	var s Scratch
	for i := range finals {
		finals[i] = append([]float64(nil), start...)
		chks[i], sums[i] = make([]float64, d), make([]float64, d)
		r := streams.ChildVal(uint64(i))
		LocalSGDScratch(m, finals[i], clients[i], 3, 2, 0.1, W, &r, chkAt, sums[i], chks[i], &s)
	}

	skip := func(i int) bool { return i%3 == 1 || i == cohortChunk }
	for _, seq := range []bool{true, false} {
		cfg := &Config{Tau1: 3, BatchSize: 2, EtaW: 0.1, TrackAverages: true, Sequential: seq}
		prob := &Problem{Model: m, W: W}
		for _, tc := range []struct {
			name string
			skip func(int) bool
		}{{"none", nil}, {"some", skip}} {
			var live, liveChks [][]float64
			wantSum := make([]float64, d)
			for i := 0; i < n; i++ {
				if tc.skip == nil || !tc.skip(i) {
					live = append(live, finals[i])
					liveChks = append(liveChks, chks[i])
					tensor.StorageAdd(wantSum, sums[i])
				}
			}
			wantW, wantChk := make([]float64, d), make([]float64, d)
			tensor.AverageInto(wantW, live...)
			tensor.AverageInto(wantChk, liveChks...)

			f := Fold{Cohort: Cohort{Clients: clients, Skip: tc.skip}}
			f.Begin(cfg, prob, NewModelPool(m), cfg.Compression)
			w, chk, sum := make([]float64, d), make([]float64, d), make([]float64, d)
			f.Block(start, streams, chkAt, sum)
			if !f.Finish(w, chk) {
				t.Fatalf("seq=%v %s: Finish reports nothing folded", seq, tc.name)
			}
			for j := range w {
				if w[j] != wantW[j] || chk[j] != wantChk[j] || sum[j] != wantSum[j] {
					t.Fatalf("seq=%v %s: coordinate %d differs from AverageInto over the survivors", seq, tc.name, j)
				}
			}
		}

		f := Fold{Cohort: Cohort{Clients: clients, Skip: func(int) bool { return true }}}
		f.Begin(cfg, prob, NewModelPool(m), cfg.Compression)
		w, chk := []float64{7}, []float64{9}
		f.Block(start, streams, chkAt, nil)
		if f.Finish(w, chk) || w[0] != 7 || chk[0] != 9 {
			t.Fatalf("seq=%v: all skipped: Finish touched w/chk or reported a fold", seq)
		}
	}
}
