package sim

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverged at step %d: %d vs %d", i, av, bv)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent, child := NewRNG(7), &RNG{}
	parent.SplitInto(child)
	// The child stream must not replay the parent stream.
	p := NewRNG(7)
	p.Uint64() // consume the split draw
	for i := 0; i < 100; i++ {
		if child.Uint64() == p.Uint64() {
			t.Fatalf("child stream collided with parent at step %d", i)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(3)
	for n := 1; n <= 64; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := NewRNG(11)
	const n, draws = 8, 80000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Errorf("bucket %d: got %d, want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(5)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := NewRNG(13)
	const p, draws = 0.14, 200000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	got := float64(hits) / draws
	if math.Abs(got-p) > 0.005 {
		t.Errorf("Bernoulli(%v) empirical rate %v", p, got)
	}
}

func TestGeometricEdgeCases(t *testing.T) {
	r := NewRNG(29)
	for i := 0; i < 100; i++ {
		if g := r.Geometric(1); g != 1 {
			t.Fatalf("Geometric(1) = %d, want 1", g)
		}
		if g := r.Geometric(1.5); g != 1 {
			t.Fatalf("Geometric(1.5) = %d, want 1", g)
		}
	}
	// Tiny p must neither overflow nor return nonsense: results stay in
	// [1, maxGeometric] even at sub-denormal success probabilities.
	for _, p := range []float64{1e-9, 1e-18, 1e-300, 5e-324} {
		for i := 0; i < 100; i++ {
			g := r.Geometric(p)
			if g < 1 || g > maxGeometric {
				t.Fatalf("Geometric(%g) = %d out of [1, 2^62]", p, g)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Geometric(0) did not panic")
		}
	}()
	r.Geometric(0)
}

func TestGeometricMean(t *testing.T) {
	// Inverse-CDF correctness: the sample mean must track 1/p across the
	// rate range the traffic generators use.
	r := NewRNG(31)
	for _, p := range []float64{0.5, 0.1, 0.004, 1e-4} {
		const draws = 200_000
		var sum float64
		for i := 0; i < draws; i++ {
			sum += float64(r.Geometric(p))
		}
		got, want := sum/draws, 1/p
		// Standard error of the mean is ~(1/p)/sqrt(draws); 4 sigma.
		if tol := 4 * want / math.Sqrt(draws); math.Abs(got-want) > tol {
			t.Errorf("Geometric(%v) mean = %v, want %v +/- %v", p, got, want, tol)
		}
	}
}

func TestGeometricReproducesBernoulliProcess(t *testing.T) {
	// The engine's contract: counting arrivals in a window of W cycles,
	// where arrival k+1 lands Geometric(p) cycles after arrival k, must
	// reproduce the per-cycle Bernoulli(p) process — a Binomial(W, p)
	// count with mean Wp and variance Wp(1-p).
	const p, window, trials = 0.02, 2_000, 5_000
	r := NewRNG(37)
	counts := make([]float64, trials)
	for tr := range counts {
		next := r.Geometric(p) - 1 // first trial succeeds with probability p
		n := 0.0
		for next < window {
			n++
			next += r.Geometric(p)
		}
		counts[tr] = n
	}
	var sum, sq float64
	for _, c := range counts {
		sum += c
	}
	mean := sum / trials
	for _, c := range counts {
		sq += (c - mean) * (c - mean)
	}
	variance := sq / (trials - 1)

	wantMean := float64(window) * p
	wantVar := float64(window) * p * (1 - p)
	// Mean within 4 standard errors; variance within 10%.
	if tol := 4 * math.Sqrt(wantVar/trials); math.Abs(mean-wantMean) > tol {
		t.Errorf("arrival count mean %v, want %v +/- %v", mean, wantMean, tol)
	}
	if math.Abs(variance-wantVar) > 0.1*wantVar {
		t.Errorf("arrival count variance %v, want ~%v", variance, wantVar)
	}
}

func TestMul64AgainstStdlib(t *testing.T) {
	check := func(a, b uint64) bool {
		hi, lo := mul64(a, b)
		wantHi, wantLo := bits.Mul64(a, b)
		return lo == wantLo && hi == wantHi
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestClock(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("fresh clock at %d", c.Now())
	}
	if c.Tick() != 1 || c.Now() != 1 {
		t.Fatal("Tick did not advance to 1")
	}
	c.Advance(10)
	if c.Now() != 11 {
		t.Fatalf("Advance(10): now = %d, want 11", c.Now())
	}
	c.Reset()
	if c.Now() != 0 {
		t.Fatal("Reset did not rewind")
	}
}

func TestClockAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	var c Clock
	c.Advance(-1)
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}
