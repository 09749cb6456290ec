package slm

import (
	"math"
	"math/rand"
	"testing"
)

// expPlain is archExp's path for CPUs without FMA
// ($GOROOT/src/math/exp_amd64.s) for −708 ≤ x ≤ 709, written in Go: the
// Go compiler fuses no multiply-add on amd64, so each product and sum
// rounds where the assembly's MULSD and ADDSD round.
func expPlain(x float64) float64 {
	const (
		log2e = 1.4426950408889634073599246810018920
		ln2u  = 0.69314718055966295651160180568695068359375
		ln2l  = 0.28235290563031577122588448175013436025525412068e-12
	)
	n := math.RoundToEven(log2e * x) // CVTSD2SL under the default rounding
	x -= ln2u * n
	x -= ln2l * n
	x *= 0.0625
	p := 2.4801587301587301587e-5*x + 1.9841269841269841270e-4
	p = p*x + 1.3888888888888888889e-3
	p = p*x + 8.3333333333333333333e-3
	p = p*x + 4.1666666666666666667e-2
	p = p*x + 1.6666666666666666667e-1
	p = p*x + 0.5
	p = p*x + 1
	x *= p
	for range 4 {
		x *= x + 2
	}
	x += 1
	return x * math.Float64frombits(uint64(int64(n)+1023)<<52)
}

// TestProbeDiscriminates holds the start-up probe to its purpose: on at
// least one of its inputs the lanes, which follow math.Exp's FMA path,
// differ from the plain path, so a math.Exp without FMA fails the probe
// and switches the lanes off.
func TestProbeDiscriminates(t *testing.T) {
	if !hasAVX2FMA() {
		t.Skip("no AVX2 and FMA")
	}
	x := append([]float64(nil), expProbe...)
	if n := expAVX(x); n != len(x) {
		t.Fatalf("expAVX stopped at %d of the probe's %d inputs", n, len(x))
	}
	differ := 0
	for i, v := range expProbe {
		if math.Float64bits(x[i]) != math.Float64bits(expPlain(v)) {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("the plain path of Exp agrees with the FMA lanes on every probe input")
	}
	t.Logf("%d of %d probe inputs tell the two paths apart", differ, len(expProbe))
}

// TestLanesFollowMathExp checks the probe's verdict against math.Exp
// itself: the lanes run when the CPU has AVX2 and FMA and math.Exp takes
// its FMA path, and not when math.Exp takes the plain one, as it does
// under GODEBUG=cpu.fma=off.
func TestLanesFollowMathExp(t *testing.T) {
	plain := true
	for _, v := range expProbe {
		if math.Float64bits(math.Exp(v)) != math.Float64bits(expPlain(v)) {
			plain = false
		}
	}
	t.Logf("AVX2 and FMA: %v; math.Exp on the plain path: %v; lanes on: %v", hasAVX2FMA(), plain, transcendentalLanes)
	switch {
	case plain && transcendentalLanes:
		t.Fatal("the lanes run although math.Exp takes the plain path")
	case !plain && hasAVX2FMA() && !transcendentalLanes:
		t.Fatal("the lanes are off although math.Exp takes the FMA path on a CPU with AVX2 and FMA")
	}
}

// checkExpTanh fails unless the exp and tanh lanes, used as the kernels
// use them (whole groups, math.Exp and math.Tanh for a group the lanes
// stop at and for the last one to three elements), give every bit of
// math.Exp and math.Tanh on xs, where NaN matches any NaN.
func checkExpTanh(t *testing.T, xs []float64) {
	t.Helper()
	for _, c := range []struct {
		name string
		lane func([]float64) int
		fn   func(float64) float64
	}{{"exp", expAVX, math.Exp}, {"tanh", tanhAVX, math.Tanh}} {
		got := append([]float64(nil), xs...)
		for x := got; len(x) > 0; {
			n := 0
			if transcendentalLanes {
				n = c.lane(x)
			}
			end := min(n+4, len(x))
			for i := n; i < end; i++ {
				x[i] = c.fn(x[i])
			}
			x = x[end:]
		}
		for i, v := range xs {
			want := c.fn(v)
			if math.Float64bits(got[i]) != math.Float64bits(want) && !(got[i] != got[i] && want != want) {
				t.Fatalf("%s lane of %v (%#x), element %d of %d: %#x, math %#x", c.name, v, math.Float64bits(v), i, len(xs), math.Float64bits(got[i]), math.Float64bits(want))
			}
		}
	}
}

// TestExpSumAddsInOrder holds expSumAVX's running sum to softmaxGo's,
// bit for bit: the float32 outputs rarely show a float64 sum that
// rounded differently, so the sum is checked itself.
func TestExpSumAddsInOrder(t *testing.T) {
	if !transcendentalLanes {
		t.Skip("the exp lanes are off")
	}
	src := rand.New(rand.NewSource(7))
	for n := 1; n <= 130; n++ {
		x := make([]float32, n)
		for i := range x {
			x[i] = float32(src.NormFloat64() * 16) // spread the exponents so that the adds round
		}
		maxv := x[0]
		for _, v := range x[1:] {
			maxv = max(maxv, v)
		}
		var want float64
		for _, v := range x {
			want += math.Exp(float64(v - maxv))
		}
		done, got := expSumAVX(x, maxv, 0)
		if done != n || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%d elements: expSumAVX did %d and summed %x, the Go loop %x", n, done, math.Float64bits(got), math.Float64bits(want))
		}
	}
}
