package fl

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/quant"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// memberResults runs every member of clients alone from start, as a
// Fold block would: its final model, checkpoint and iterate sum.
func memberResults(m model.Model, clients []data.Subset, start []float64, streams rng.Stream, cfg *Config, chkAt int) (finals, chks, sums [][]float64) {
	n, d := len(clients), len(start)
	finals, chks, sums = make([][]float64, n), make([][]float64, n), make([][]float64, n)
	var s Scratch
	for i := range finals {
		finals[i] = append([]float64(nil), start...)
		chks[i], sums[i] = make([]float64, d), make([]float64, d)
		r := streams.ChildVal(uint64(i))
		LocalSGDScratch(m, finals[i], clients[i], cfg.Tau1, cfg.BatchSize, cfg.EtaW, nil, &r, chkAt, sums[i], chks[i], &s)
	}
	return finals, chks, sums
}

// sameBits fails unless got and want are equal bit for bit.
func sameBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s: coordinate %d = %v, want %v", name, j, got[j], want[j])
		}
	}
}

// TestFoldSkip checks the Cohort's Skip predicate: a skipped position
// neither trains nor folds in, and the survivors' mean is exactly
// AverageInto over what those members produce on their own (a member's
// result depends only on its position) — for a single-chunk cohort,
// whose Finish averages the lane rows directly, and across a chunk
// boundary, with the checkpoint off, after the first step and after the
// last, on one processor and on four. With every position
// skipped, Finish reports it and leaves w and chk untouched.
func TestFoldSkip(t *testing.T) {
	const tau1 = 3
	m := model.NewLinear(4, 2)
	d := m.Dim()
	start := make([]float64, d)
	rng.New(1).Fill(start, 0.2)
	streams := *rng.New(2)
	skip := func(i int) bool { return i%3 == 1 || i == cohortChunk }
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	for _, n := range []int{7, cohortChunk + 5} {
		clients := make([]data.Subset, n)
		for i := range clients {
			clients[i] = toyShard(uint64(10+i), 12)
		}
		for _, chkAt := range []int{0, 1, tau1} {
			for _, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				cfg := &Config{Tau1: tau1, BatchSize: 2, EtaW: 0.1, TrackAverages: true}
				prob := &Problem{Model: m}
				finals, chks, sums := memberResults(m, clients, start, streams, cfg, chkAt)
				for _, tc := range []struct {
					name string
					skip func(int) bool
				}{{"none", nil}, {"some", skip}} {
					name := fmt.Sprintf("n=%d chkAt=%d procs=%d %s", n, chkAt, procs, tc.name)
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
					if chkAt > 0 {
						tensor.AverageInto(wantChk, liveChks...)
					} else {
						tensor.Fill(wantChk, 9) // untouched
					}

					f := Fold{Cohort: Cohort{Clients: clients, Skip: tc.skip}}
					f.Begin(cfg, prob, NewModelPool(m), cfg.Compression)
					w, chk, sum := make([]float64, d), make([]float64, d), make([]float64, d)
					tensor.Fill(chk, 9)
					f.Block(start, streams, chkAt, sum)
					if !f.Finish(w, chk) {
						t.Fatalf("%s: Finish reports nothing folded", name)
					}
					sameBits(t, name+" w", w, wantW)
					sameBits(t, name+" chk", chk, wantChk)
					sameBits(t, name+" iterate sum", sum, wantSum)
				}

				f := Fold{Cohort: Cohort{Clients: clients, Skip: func(int) bool { return true }}}
				f.Begin(cfg, prob, NewModelPool(m), cfg.Compression)
				w, chk := []float64{7}, []float64{9}
				f.Block(start, streams, chkAt, nil)
				if f.Finish(w, chk) || w[0] != 7 || chk[0] != 9 {
					t.Fatalf("n=%d chkAt=%d procs=%d: all skipped: Finish touched w/chk or reported a fold", n, chkAt, procs)
				}
			}
		}
	}
}

// TestFoldBlocksBeforeFinish covers the folds that must not take the
// single-chunk shortcut, each bitwise against AverageInto over every
// surviving member in fold order: two Blocks before one Finish (the
// minimax baselines' flat average over a round's slots — the second
// Block must fold the first one's lanes before overwriting them), and a
// Block followed by an Add, for single- and multi-chunk cohorts, with
// and without checkpoints and skipped members.
func TestFoldBlocksBeforeFinish(t *testing.T) {
	const tau1 = 3
	m := model.NewLinear(4, 2)
	d := m.Dim()
	prob := &Problem{Model: m}
	cfg := &Config{Tau1: tau1, BatchSize: 2, EtaW: 0.1, TrackAverages: true}
	startA, startB := make([]float64, d), make([]float64, d)
	rng.New(5).Fill(startA, 0.2)
	rng.New(6).Fill(startB, 0.2)
	streamsA, streamsB := *rng.New(7), *rng.New(8)

	for _, n := range []int{7, cohortChunk + 5} {
		clients := make([]data.Subset, n)
		for i := range clients {
			clients[i] = toyShard(uint64(50+i), 12)
		}
		for _, chkAt := range []int{0, 1, tau1} {
			for _, skip := range []func(int) bool{nil, func(i int) bool { return i%4 == 2 }} {
				name := fmt.Sprintf("n=%d chkAt=%d skip=%v", n, chkAt, skip != nil)
				finA, chkA, _ := memberResults(m, clients, startA, streamsA, cfg, chkAt)
				finB, chkB, _ := memberResults(m, clients, startB, streamsB, cfg, chkAt)
				var live, liveChks [][]float64
				for _, res := range [][2][][]float64{{finA, chkA}, {finB, chkB}} {
					for i := 0; i < n; i++ {
						if skip == nil || !skip(i) {
							live = append(live, res[0][i])
							liveChks = append(liveChks, res[1][i])
						}
					}
				}
				wantW, wantChk := make([]float64, d), make([]float64, d)
				tensor.AverageInto(wantW, live...)
				if chkAt > 0 {
					tensor.AverageInto(wantChk, liveChks...)
				}

				f := Fold{Cohort: Cohort{Clients: clients, Skip: skip}}
				w, chk := make([]float64, d), make([]float64, d)
				f.Begin(cfg, prob, NewModelPool(m), cfg.Compression)
				f.Block(startA, streamsA, chkAt, nil)
				f.Begin(cfg, prob, NewModelPool(m), cfg.Compression)
				f.Block(startB, streamsB, chkAt, nil)
				if !f.Finish(w, chk) {
					t.Fatalf("%s: two blocks folded nothing", name)
				}
				sameBits(t, name+" two blocks w", w, wantW)
				sameBits(t, name+" two blocks chk", chk, wantChk)

				// A Block then Adds: the second block's members arrive
				// through Add, as from a transport.
				f.Begin(cfg, prob, NewModelPool(m), cfg.Compression)
				f.Block(startA, streamsA, chkAt, nil)
				for i := 0; i < n; i++ {
					if skip != nil && skip(i) {
						continue
					}
					var c []float64
					if chkAt > 0 {
						c = chkB[i]
					}
					f.Add(finB[i], c, nil, nil)
				}
				if !f.Finish(w, chk) {
					t.Fatalf("%s: block + add folded nothing", name)
				}
				sameBits(t, name+" block+add w", w, wantW)
				sameBits(t, name+" block+add chk", chk, wantChk)
			}
		}
	}
}

// TestFoldAddMatchesBlock feeds the results members produce on their own
// back through Fold.Add in cohort order: the means Finish reports and
// the iterate sum equal Block's bit for bit, with and without skipped
// members, checkpoints and iterate sums, across a chunk boundary. The
// adding fold has an empty cohort and no compression, so it sizes no
// lane or residual rows and allocates nothing once warm.
func TestFoldAddMatchesBlock(t *testing.T) {
	const n = cohortChunk + 5
	m := model.NewLinear(4, 2)
	d := m.Dim()
	clients := make([]data.Subset, n)
	for i := range clients {
		clients[i] = toyShard(uint64(30+i), 12)
	}
	start := make([]float64, d)
	rng.New(3).Fill(start, 0.2)
	streams := *rng.New(4)
	prob := &Problem{Model: m}
	cfg := &Config{Tau1: 3, BatchSize: 2, EtaW: 0.1, TrackAverages: true}

	for _, chkAt := range []int{0, 1, cfg.Tau1} {
		for _, track := range []bool{false, true} {
			for _, skip := range []func(int) bool{nil, func(i int) bool { return i%4 == 1 }} {
				name := func() string { return fmt.Sprintf("chkAt=%d track=%v skip=%v", chkAt, track, skip != nil) }
				var blockSum, addSum []float64
				if track {
					blockSum, addSum = make([]float64, d), make([]float64, d)
				}
				ref := Fold{Cohort: Cohort{Clients: clients, Skip: skip}}
				ref.Begin(cfg, prob, NewModelPool(m), cfg.Compression)
				ref.Block(start, streams, chkAt, blockSum)
				wantW, wantChk := make([]float64, d), make([]float64, d)
				if !ref.Finish(wantW, wantChk) {
					t.Fatalf("%s: Block folded nothing", name())
				}

				var add Fold
				add.Begin(cfg, prob, nil, quant.Config{})
				var s Scratch
				for i := 0; i < n; i++ {
					if skip != nil && skip(i) {
						continue
					}
					final := append([]float64(nil), start...)
					var chk, sum []float64
					if chkAt > 0 {
						chk = make([]float64, d)
					}
					if track {
						sum = make([]float64, d)
					}
					r := streams.ChildVal(uint64(i))
					LocalSGDScratch(m, final, clients[i], cfg.Tau1, cfg.BatchSize, cfg.EtaW, nil, &r, chkAt, sum, chk, &s)
					add.Add(final, chk, sum, addSum)
				}
				gotW, gotChk := make([]float64, d), make([]float64, d)
				if !add.Finish(gotW, gotChk) {
					t.Fatalf("%s: Add folded nothing", name())
				}
				for j := 0; j < d; j++ {
					if gotW[j] != wantW[j] || gotChk[j] != wantChk[j] || track && addSum[j] != blockSum[j] {
						t.Fatalf("%s: coordinate %d differs from Block", name(), j)
					}
				}
				if len(add.l64.finals)+len(add.l64.chks)+len(add.l64.sums)+len(add.l32.finals)+len(add.l32.chks)+len(add.l32.sums) != 0 || add.resid != nil {
					t.Fatalf("%s: an empty-cohort fold sized lane or residual rows", name())
				}
			}
		}
	}

	var f Fold
	final, chk, sum, iterSum := make([]float64, d), make([]float64, d), make([]float64, d), make([]float64, d)
	slot := func() {
		f.Begin(cfg, prob, nil, quant.Config{})
		f.Add(final, chk, sum, iterSum)
		f.Add(final, nil, sum, iterSum)
		f.Finish(final, chk)
	}
	slot()
	if a := testing.AllocsPerRun(20, slot); a != 0 {
		t.Fatalf("a warm empty-cohort fold allocates %v per slot", a)
	}
}

// TestFoldFloat32LanesMatchAdd pins the float32 lanes of the avx2f32
// tier: Block + Finish over a 40-member cohort (two chunks) with skipped
// members and iterate sums equals, bit for bit, every surviving member
// run alone through LocalSGDScratch (the float64 adapter) and folded in
// with Add — with the checkpoint off, after the first step and after
// the last, on one processor and on four.
func TestFoldFloat32LanesMatchAdd(t *testing.T) {
	defer tensor.SetKernel(tensor.KernelAVX2F32)()
	const n, tau1 = 40, 3
	m := model.NewLinear(4, 2)
	d := m.Dim()
	clients := make([]data.Subset, n)
	for i := range clients {
		clients[i] = toyShard(uint64(70+i), 12)
	}
	start := make([]float64, d)
	rng.New(9).Fill(start, 0.2)
	tensor.Round32(start)
	streams := *rng.New(10)
	skip := func(i int) bool { return i%5 == 3 || i == cohortChunk }
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	prob := &Problem{Model: m}
	for _, chkAt := range []int{0, 1, tau1} {
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			name := fmt.Sprintf("chkAt=%d procs=%d", chkAt, procs)
			cfg := &Config{Tau1: tau1, BatchSize: 2, EtaW: 0.1, TrackAverages: true}

			var add Fold
			add.Begin(cfg, prob, nil, quant.Config{})
			var s Scratch
			wantSum := make([]float64, d)
			for i := 0; i < n; i++ {
				if skip(i) {
					continue
				}
				final, chk, sum := append([]float64(nil), start...), make([]float64, d), make([]float64, d)
				r := streams.ChildVal(uint64(i))
				LocalSGDScratch(m, final, clients[i], cfg.Tau1, cfg.BatchSize, cfg.EtaW, nil, &r, chkAt, sum, chk, &s)
				if chkAt == 0 {
					chk = nil
				}
				add.Add(final, chk, sum, wantSum)
			}
			wantW, wantChk := make([]float64, d), make([]float64, d)
			if !add.Finish(wantW, wantChk) {
				t.Fatalf("%s: Add folded nothing", name)
			}

			f := Fold{Cohort: Cohort{Clients: clients, Skip: skip}}
			f.Begin(cfg, prob, NewModelPool(m), cfg.Compression)
			w, chk, sum := make([]float64, d), make([]float64, d), make([]float64, d)
			f.Block(start, streams, chkAt, sum)
			if !f.Finish(w, chk) {
				t.Fatalf("%s: Block folded nothing", name)
			}
			if len(f.l32.finals) != cohortChunk || len(f.l64.finals) != 0 {
				t.Fatalf("%s: %d float32 and %d float64 lane rows, want float32 lanes only", name, len(f.l32.finals), len(f.l64.finals))
			}
			sameBits(t, name+" w", w, wantW)
			sameBits(t, name+" chk", chk, wantChk)
			sameBits(t, name+" iterate sum", sum, wantSum)
		}
	}
}

// TestFoldReusedAtAnotherDimension begins one Fold at one model
// dimension and then at another, as a pooled fold is reused across
// runs: a slot over a cohort one past a chunk (so the second chunk folds
// the first through the running means) with checkpoints, then one Add,
// must give at the second dimension what a fresh Fold gives, bit for
// bit — growing and shrinking, at both storage widths.
func TestFoldReusedAtAnotherDimension(t *testing.T) {
	const n, tau1, chkAt = cohortChunk + 1, 3, 1
	clients := make([]data.Subset, n)
	for i := range clients {
		clients[i] = toyShard(uint64(90+i), 12)
	}
	streams := *rng.New(12)
	slot := func(f *Fold, m model.Model) (w, chk []float64) {
		d := m.Dim()
		cfg := &Config{Tau1: tau1, BatchSize: 2, EtaW: 0.1}
		start, extra := make([]float64, d), make([]float64, d)
		rng.New(11).Fill(start, 0.2)
		rng.New(13).Fill(extra, 0.2)
		f.Begin(cfg, &Problem{Model: m}, NewModelPool(m), cfg.Compression)
		f.Block(start, streams, chkAt, nil)
		f.Add(extra, extra, nil, nil)
		w, chk = make([]float64, d), make([]float64, d)
		if !f.Finish(w, chk) {
			t.Fatalf("d=%d: Finish reports nothing folded", d)
		}
		return w, chk
	}
	small, large := model.NewLinear(4, 2), model.NewMLP(4, 5, 3, 2)
	for _, class := range []tensor.KernelClass{tensor.KernelGeneric, tensor.KernelAVX2F32} {
		restore := tensor.SetKernel(class)
		for _, dims := range [][2]model.Model{{small, large}, {large, small}} {
			name := fmt.Sprintf("%v: d=%d after d=%d", class, dims[1].Dim(), dims[0].Dim())
			reused, fresh := Fold{Cohort: Cohort{Clients: clients}}, Fold{Cohort: Cohort{Clients: clients}}
			slot(&reused, dims[0])
			w, chk := slot(&reused, dims[1])
			wantW, wantChk := slot(&fresh, dims[1])
			sameBits(t, name+" w", w, wantW)
			sameBits(t, name+" chk", chk, wantChk)
		}
		restore()
	}
}
