package fl

import (
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/quant"
	"repro/internal/rng"
	"repro/internal/topology"
)

func toyShard(seed uint64, n int) data.Subset {
	r := rng.New(seed)
	var s data.Subset
	for i := 0; i < n; i++ {
		x := make([]float64, 4)
		r.Fill(x, 0.3)
		y := i % 2
		x[y] += 2
		s.Append(x, y)
	}
	return s
}

func TestLocalSGDDoesNotMutateStart(t *testing.T) {
	m := model.NewLinear(4, 2)
	w0 := make([]float64, m.Dim())
	rng.New(1).Fill(w0, 0.1)
	orig := append([]float64(nil), w0...)
	shard := toyShard(2, 20)
	LocalSGD(m, w0, shard, 5, 2, 0.1, nil, rng.New(3), 0, nil)
	for i := range w0 {
		if w0[i] != orig[i] {
			t.Fatal("LocalSGD mutated w0")
		}
	}
}

func TestLocalSGDCheckpointSemantics(t *testing.T) {
	m := model.NewLinear(4, 2)
	w0 := make([]float64, m.Dim())
	shard := toyShard(2, 20)
	// chkAt == steps: checkpoint equals the final iterate.
	wf, wc := LocalSGD(m, w0, shard, 5, 2, 0.1, nil, rng.New(3), 5, nil)
	if wc == nil {
		t.Fatal("no checkpoint at chkAt=steps")
	}
	for i := range wf {
		if wf[i] != wc[i] {
			t.Fatal("checkpoint at last step differs from final")
		}
	}
	// chkAt = 2 equals running only 2 steps with the same stream.
	_, wc2 := LocalSGD(m, w0, shard, 5, 2, 0.1, nil, rng.New(3), 2, nil)
	short, _ := LocalSGD(m, w0, shard, 2, 2, 0.1, nil, rng.New(3), 0, nil)
	for i := range short {
		if wc2[i] != short[i] {
			t.Fatal("mid-run checkpoint differs from prefix run")
		}
	}
	// chkAt = 0: no checkpoint.
	_, wc0 := LocalSGD(m, w0, shard, 5, 2, 0.1, nil, rng.New(3), 0, nil)
	if wc0 != nil {
		t.Fatal("unexpected checkpoint")
	}
}

func TestLocalSGDIterSum(t *testing.T) {
	m := model.NewLinear(4, 2)
	w0 := make([]float64, m.Dim())
	rng.New(9).Fill(w0, 0.2)
	shard := toyShard(2, 20)
	sum := make([]float64, m.Dim())
	LocalSGD(m, w0, shard, 1, 2, 0.1, nil, rng.New(3), 0, sum)
	// One step: the only accumulated iterate is w^(0) = w0.
	for i := range sum {
		if sum[i] != w0[i] {
			t.Fatal("iterSum after one step must equal w0")
		}
	}
}

func TestLocalSGDDeterministicInStream(t *testing.T) {
	m := model.NewLinear(4, 2)
	w0 := make([]float64, m.Dim())
	shard := toyShard(2, 20)
	a, _ := LocalSGD(m, w0, shard, 8, 2, 0.1, nil, rng.New(42), 0, nil)
	b, _ := LocalSGD(m.Clone(), w0, shard, 8, 2, 0.1, nil, rng.New(42), 0, nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same stream, different trajectory")
		}
	}
}

func TestCohortLossEstimate(t *testing.T) {
	m := model.NewLinear(4, 2)
	w := make([]float64, m.Dim())
	shard := toyShard(5, 40)
	area := data.AreaData{Clients: []data.Subset{shard, shard}, Train: shard, Test: shard}
	// Zero model: every mini-batch loss is exactly ln 2.
	fed := &data.Federation{Areas: []data.AreaData{area}}
	got, n := CohortLossEstimate(m, w, &Config{LossBatch: 4}, fed, 0, 0, rng.New(1))
	if math.Abs(got-math.Log(2)) > 1e-12 || n != 2 {
		t.Fatalf("loss estimate %v over %d clients, want ln 2 over 2", got, n)
	}
}

func TestConfigDefaultsAndValidation(t *testing.T) {
	c := Config{Rounds: 10, EtaW: 0.1}.WithDefaults()
	if c.Tau1 != 1 || c.Tau2 != 1 || c.BatchSize != 1 || c.LossBatch != 1 || c.SampledEdges != 1 {
		t.Fatalf("defaults wrong: %+v", c)
	}
	if c.EtaP != c.EtaW {
		t.Fatal("EtaP should default to EtaW")
	}
	if c.SlotsPerRound() != 1 {
		t.Fatal("slot math wrong")
	}

	fed := tinyFed()
	prob := NewProblem(fed, model.NewLinear(4, 2))
	bad := []Config{
		{Rounds: 0, EtaW: 0.1},
		{Rounds: 1, EtaW: -1},
		{Rounds: 1, EtaW: 0.1, EtaP: -0.1},
		{Rounds: 1, EtaW: 0.1, SampledEdges: 5},
		{Rounds: 1, EtaW: 0.1, DropoutProb: 1.0},
		// A negative population knob, with the other at zero or not.
		{Rounds: 1, EtaW: 0.1, Population: -1},
		{Rounds: 1, EtaW: 0.1, SamplePerRound: -4},
		{Rounds: 1, EtaW: 0.1, Population: -1, SamplePerRound: -4},
	}
	for i, b := range bad {
		if err := b.WithDefaults().Validate(prob); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
	good := Config{Rounds: 1, EtaW: 0.1}.WithDefaults()
	if err := good.Validate(prob); err != nil {
		t.Fatal(err)
	}
}

func TestUplinkBytes(t *testing.T) {
	const d, k = 100, 10
	const elem = 8
	for _, r := range []struct {
		name  string
		q     quant.Config
		model int64 // one model's wire size, written out by hand
	}{
		{"dense", quant.Config{}, d * elem},
		{"8-bit", quant.Config{Bits: 8}, d + 16}, // a byte per element plus the range scalars
		{"top-k", quant.Config{TopK: k}, 12 * k}, // a 4-byte index and an 8-byte value per kept element
	} {
		for _, chk := range []bool{false, true} {
			for _, track := range []bool{false, true} {
				want := r.model
				if chk {
					want += r.model
				}
				if track {
					want += d * elem // the iterate sum travels dense
				}
				c := Config{Compression: r.q, TrackAverages: track}
				if got := c.UplinkBytes(d, chk); got != want {
					t.Errorf("%s chk=%v track=%v: %d bytes, want %d", r.name, chk, track, got, want)
				}
			}
		}
	}
}

func tinyFed() *data.Federation {
	shard := toyShard(1, 10)
	return &data.Federation{
		Name: "tiny", NumClasses: 2, InputDim: 4,
		Areas: []data.AreaData{
			{Clients: []data.Subset{shard}, Train: shard, Test: shard},
			{Clients: []data.Subset{shard}, Train: shard, Test: shard},
		},
	}
}

func TestProblemValidate(t *testing.T) {
	fed := tinyFed()
	if err := NewProblem(fed, model.NewLinear(4, 2)).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := NewProblem(fed, model.NewLinear(5, 2)).Validate(); err == nil {
		t.Fatal("dim mismatch accepted")
	}
	if err := NewProblem(fed, model.NewLinear(4, 3)).Validate(); err == nil {
		t.Fatal("class mismatch accepted")
	}
	if err := (&Problem{}).Validate(); err == nil {
		t.Fatal("empty problem accepted")
	}
}

func TestRunLifecycle(t *testing.T) {
	prob := NewProblem(tinyFed(), model.NewLinear(4, 2))
	calls := 0
	res, err := Run("test", prob, Config{Rounds: 6, EtaW: 0.1, EvalEvery: 2, TrackAverages: true}, func(k int, st *State) {
		if k != calls {
			t.Fatalf("round order broken: got %d want %d", k, calls)
		}
		calls++
		// Simulate some work moving w.
		st.W[0] += 0.1
		st.P[0] += 0.01
		st.Prob.P.Project(st.P)
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 6 {
		t.Fatalf("round fn called %d times", calls)
	}
	// Snapshots: round 0, 2, 4, 6 (final not duplicated).
	rounds := []int{}
	for _, s := range res.History.Snapshots {
		rounds = append(rounds, s.Round)
	}
	want := []int{0, 2, 4, 6}
	if len(rounds) != len(want) {
		t.Fatalf("snapshot rounds %v", rounds)
	}
	for i := range want {
		if rounds[i] != want[i] {
			t.Fatalf("snapshot rounds %v", rounds)
		}
	}
	// p starts uniform (recorded at round 0).
	p0 := res.History.Snapshots[0].P
	if p0[0] != 0.5 || p0[1] != 0.5 {
		t.Fatalf("p^(0) = %v", p0)
	}
	// PHat is the average of p^(0..K-1) and stays in the simplex.
	if res.PHat == nil {
		t.Fatal("TrackAverages did not produce PHat")
	}
	sum := res.PHat[0] + res.PHat[1]
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("PHat sums to %v", sum)
	}
}

func TestRunRejectsInvalid(t *testing.T) {
	prob := NewProblem(tinyFed(), model.NewLinear(4, 2))
	if _, err := Run("x", prob, Config{Rounds: 0, EtaW: 1}, func(int, *State) {}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestHistoryQueries(t *testing.T) {
	h := History{Snapshots: []Snapshot{
		{Round: 0, Fair: fair(0.1, 0.0)},
		{Round: 1, Fair: fair(0.5, 0.3), Ledger: ledgerWith(10)},
		{Round: 2, Fair: fair(0.8, 0.6), Ledger: ledgerWith(20)},
		{Round: 3, Fair: fair(0.9, 0.5), Ledger: ledgerWith(30)},
	}}
	if r := h.Snapshots[2].CloudRounds(); r != 20 {
		t.Fatalf("CloudRounds = %d", r)
	}
	if h.Final().Round != 3 {
		t.Fatal("Final wrong")
	}
}

func fair(avg, worst float64) metrics.Fairness {
	return metrics.Fairness{Average: avg, Worst: worst}
}

func ledgerWith(cloudRounds int64) topology.LedgerSnapshot {
	var s topology.LedgerSnapshot
	s.Rounds[topology.EdgeCloud] = cloudRounds
	return s
}

func TestModelPoolReuse(t *testing.T) {
	pool := NewModelPool(model.NewLinear(4, 2))
	a := pool.Get()
	pool.Put(a)
	b := pool.Get()
	if a != b {
		t.Fatal("pool did not reuse the instance")
	}
	c := pool.Get() // empty pool: must clone
	if c == b {
		t.Fatal("pool handed out the same instance twice")
	}
}
