package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d equal outputs", same)
	}
}

func TestChildIndependence(t *testing.T) {
	root := New(7)
	c1 := root.Child(1)
	c2 := root.Child(2)
	c1again := root.Child(1)
	if c1.Uint64() != c1again.Uint64() {
		t.Fatal("Child is not a pure function of (parent, key)")
	}
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("children with distinct keys coincide")
	}
	// Deriving children must not advance the parent.
	p1 := New(7)
	if root.Uint64() != p1.Uint64() {
		t.Fatal("Child advanced the parent stream")
	}
}

func TestChildNPath(t *testing.T) {
	root := New(9)
	a := root.ChildN(3, 5)
	b := root.Child(3).Child(5)
	if a.Uint64() != b.Uint64() {
		t.Fatal("ChildN disagrees with chained Child")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(11)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(12)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean %v too far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(13)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	s := New(14)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d deviates from %v", i, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(15)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := s.NormFloat64()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(16)
	f := func(seed uint64) bool {
		p := New(seed).Perm(50)
		seen := make([]bool, 50)
		for _, v := range p {
			if v < 0 || v >= 50 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	_ = s
}

func TestCategoricalRespectsZeros(t *testing.T) {
	s := New(17)
	w := []float64{0, 1, 0, 2, 0}
	for i := 0; i < 5000; i++ {
		idx := s.Categorical(w)
		if idx != 1 && idx != 3 {
			t.Fatalf("drew zero-weight index %d", idx)
		}
	}
}

func TestCategoricalProportions(t *testing.T) {
	s := New(18)
	w := []float64{1, 2, 3, 4}
	const draws = 200000
	counts := make([]float64, 4)
	for i := 0; i < draws; i++ {
		counts[s.Categorical(w)]++
	}
	for i, wi := range w {
		got := counts[i] / draws
		want := wi / 10
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("index %d frequency %v, want %v", i, got, want)
		}
	}
}

func TestCategoricalPanicsOnBadWeights(t *testing.T) {
	for _, w := range [][]float64{{0, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Categorical(%v) did not panic", w)
				}
			}()
			New(1).Categorical(w)
		}()
	}
}

func TestSampleUniformDistinctSorted(t *testing.T) {
	s := New(19)
	for trial := 0; trial < 200; trial++ {
		out := s.SampleUniform(5, 12)
		if len(out) != 5 {
			t.Fatalf("got %d samples, want 5", len(out))
		}
		for i := 1; i < len(out); i++ {
			if out[i] <= out[i-1] {
				t.Fatalf("samples not sorted-distinct: %v", out)
			}
		}
		for _, v := range out {
			if v < 0 || v >= 12 {
				t.Fatalf("sample %d out of range", v)
			}
		}
	}
}

func TestSampleUniformCoverage(t *testing.T) {
	// Every index must be drawable with roughly m/n marginal probability.
	s := New(20)
	const n, m, trials = 10, 3, 60000
	counts := make([]float64, n)
	for i := 0; i < trials; i++ {
		for _, v := range s.SampleUniform(m, n) {
			counts[v]++
		}
	}
	want := float64(m) / n
	for i, c := range counts {
		got := c / trials
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("index %d marginal %v, want %v", i, got, want)
		}
	}
}

func TestSampleUniformFull(t *testing.T) {
	out := New(3).SampleUniform(7, 7)
	for i, v := range out {
		if v != i {
			t.Fatalf("SampleUniform(n,n) = %v, want identity", out)
		}
	}
}

func TestSampleWeightedWithReplacement(t *testing.T) {
	s := New(21)
	w := []float64{0.9, 0.1}
	out := s.SampleWeighted(1000, w)
	ones := 0
	for _, v := range out {
		if v == 1 {
			ones++
		}
	}
	if ones < 50 || ones > 180 {
		t.Fatalf("weighted sampling frequency of low-weight index: %d/1000", ones)
	}
}

func TestFillMoments(t *testing.T) {
	s := New(23)
	buf := make([]float64, 100000)
	s.Fill(buf, 2.0)
	sum, sumSq := 0.0, 0.0
	for _, x := range buf {
		sum += x
		sumSq += x * x
	}
	mean := sum / float64(len(buf))
	variance := sumSq/float64(len(buf)) - mean*mean
	if math.Abs(mean) > 0.05 || math.Abs(variance-4) > 0.15 {
		t.Fatalf("Fill moments mean=%v var=%v, want 0 and 4", mean, variance)
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	s := New(25)
	p := []int{1, 1, 2, 3, 5, 8}
	q := append([]int(nil), p...)
	s.Shuffle(q)
	counts := map[int]int{}
	for _, v := range p {
		counts[v]++
	}
	for _, v := range q {
		counts[v]--
	}
	for k, c := range counts {
		if c != 0 {
			t.Fatalf("element %d count changed by shuffle", k)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkNormFloat64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.NormFloat64()
	}
}

func TestChildValMatchesChild(t *testing.T) {
	parent := New(99)
	for _, key := range []uint64{0, 1, 'k', 1 << 40} {
		ptr := parent.Child(key)
		val := parent.ChildVal(key)
		for i := 0; i < 16; i++ {
			if a, b := ptr.Uint64(), val.Uint64(); a != b {
				t.Fatalf("key %d draw %d: Child %d != ChildVal %d", key, i, a, b)
			}
		}
	}
	// Chained derivation matches ChildN.
	want := New(5).ChildN(3, 7)
	got := New(5).ChildVal(3).ChildVal(7)
	if want.Uint64() != got.Uint64() {
		t.Fatal("ChildVal chain diverges from ChildN")
	}
}

func TestChildValDoesNotAllocate(t *testing.T) {
	parent := New(4)
	var sink uint64
	allocs := testing.AllocsPerRun(100, func() {
		c := parent.ChildVal(11).ChildVal(12)
		sink += c.Uint64()
	})
	if allocs != 0 {
		t.Fatalf("ChildVal allocates %.1f objects per chain, want 0", allocs)
	}
	_ = sink
}

func TestStreamBinaryRoundTrip(t *testing.T) {
	s := New(99)
	s.NormFloat64() // populate the cached spare deviate
	enc, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != MarshaledSize {
		t.Fatalf("encoding is %d bytes, want %d", len(enc), MarshaledSize)
	}
	var r Stream
	if err := r.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if a, b := s.NormFloat64(), r.NormFloat64(); a != b {
			t.Fatalf("restored stream diverges at draw %d: %v vs %v", i, a, b)
		}
		if a, b := s.Uint64(), r.Uint64(); a != b {
			t.Fatalf("restored stream diverges at draw %d: %d vs %d", i, a, b)
		}
	}
	if got := s.AppendBinary(nil); len(got) != MarshaledSize {
		t.Fatalf("AppendBinary wrote %d bytes", len(got))
	}
	var bad Stream
	if err := bad.UnmarshalBinary(enc[:5]); err == nil {
		t.Fatal("short encoding accepted")
	}
	enc[16] = 7
	if err := bad.UnmarshalBinary(enc); err == nil {
		t.Fatal("invalid spare flag accepted")
	}
}

// forEachDrawPath runs f with the scalar Float64s loop and, where the
// CPU has them, with the four-lane draws.
func forEachDrawPath(t *testing.T, f func(t *testing.T)) {
	defer func(on bool) { useLanes = on }(useLanes)
	paths := []bool{false}
	if useLanes {
		paths = append(paths, true)
	}
	for _, on := range paths {
		useLanes = on
		name := "scalar"
		if on {
			name = "lanes"
		}
		t.Run(name, f)
	}
}

// unmix inverts the output mixing of Uint64: the state s.state must
// reach for the next draw to return z.
func unmix(z uint64) uint64 {
	unshift := func(y uint64, k uint) uint64 {
		x := y
		for i := 0; i < 64; i += int(k) {
			x = y ^ x>>k
		}
		return x
	}
	inverse := func(c uint64) uint64 {
		inv := c // correct to 3 bits for odd c; each step doubles that
		for i := 0; i < 5; i++ {
			inv *= 2 - c*inv
		}
		return inv
	}
	z = unshift(z, 31)
	z *= inverse(0x94d049bb133111eb)
	z = unshift(z, 27)
	z *= inverse(0xbf58476d1ce4e5b9)
	return unshift(z, 30)
}

// TestFloat64sMatchesFloat64 holds the bulk draw to len(dst) calls of
// Float64: every value bit for bit and the end state, on both paths,
// from ordinary seeds, from the all-ones state, and from states whose
// first draw sits at the edges of the float conversion, which splits
// z >> 11 at bit 32 of z: zero, the smallest and largest values, and
// each half at its extremes with the other half zero or one.
func TestFloat64sMatchesFloat64(t *testing.T) {
	starts := []Stream{Root(1), Root(77), {state: ^uint64(0)}}
	for _, z := range []uint64{0, 1<<11 - 1, 1 << 11, 1<<32 - 1, 1 << 32, 1<<32 | 1<<11, ^uint64(0)} {
		start := Stream{state: unmix(z) - gamma}
		if probe := start; probe.Uint64() != z {
			t.Fatalf("unmix(%#x) does not lead to draw %#x", z, z)
		}
		starts = append(starts, start)
	}
	forEachDrawPath(t, func(t *testing.T) {
		for _, start := range starts {
			for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 257, 7850} {
				bulk, ref := start, start
				got := make([]float64, n)
				bulk.Float64s(got)
				for i, g := range got {
					if w := ref.Float64(); math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("state %#x n=%d: draw %d is %v, Float64 gives %v", start.state, n, i, g, w)
					}
				}
				if bulk != ref {
					t.Fatalf("state %#x n=%d: end state %#x, Float64 leaves %#x", start.state, n, bulk.state, ref.state)
				}
			}
		}
	})
}

func BenchmarkFloat64s(b *testing.B) {
	s := New(1)
	buf := make([]float64, 512)
	b.SetBytes(int64(8 * len(buf)))
	for i := 0; i < b.N; i++ {
		s.Float64s(buf)
	}
}
