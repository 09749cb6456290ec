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

// TestExpSumAddsInOrder holds the running sums of expSumAVX and
// expSum2AVX to softmaxGo's, bit for bit: the float32 outputs rarely show a float64 sum that
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
		// The pair kernel, with x as either row, before expSumAVX
		// overwrites x.
		y := append([]float32(nil), x...)
		for i := range y {
			y[i] = -y[i] / 2
		}
		maxY := y[0]
		for _, v := range y[1:] {
			maxY = max(maxY, v)
		}
		var wantY float64
		for _, v := range y[:n&^3] {
			wantY += math.Exp(float64(v - maxY))
		}
		var wantX4 float64
		for _, v := range x[:n&^3] {
			wantX4 += math.Exp(float64(v - maxv))
		}
		for _, c := range []struct {
			a, b         []float32
			maxA, maxB   float32
			wantA, wantB float64
		}{
			{append([]float32(nil), x...), append([]float32(nil), y...), maxv, maxY, wantX4, wantY},
			{append([]float32(nil), y...), append([]float32(nil), x...), maxY, maxv, wantY, wantX4},
		} {
			done, sumA, sumB := expSum2AVX(c.a, c.b, c.maxA, c.maxB)
			if done != n&^3 || math.Float64bits(sumA) != math.Float64bits(c.wantA) || math.Float64bits(sumB) != math.Float64bits(c.wantB) {
				t.Fatalf("%d elements: expSum2AVX did %d and summed %x and %x, the Go loop %x and %x", n, done, math.Float64bits(sumA), math.Float64bits(sumB), math.Float64bits(c.wantA), math.Float64bits(c.wantB))
			}
		}
		done, got := expSumAVX(x, maxv, 0)
		if done != n || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%d elements: expSumAVX did %d and summed %x, the Go loop %x", n, done, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// TestMatVecBlockPositionTails holds matVecBlock to matVecGo, bit for
// bit, on 1 to 9 positions — one padded block, whole blocks, and a last
// block that overlaps the one before it — of the verification
// network's matrices (32×32, 64×32 and 32×64), of matrices at the
// padded block's limit of padMax rows and columns, and of matrices just
// past it, with the 256-bit kernels on and off. No kernel may write
// past the positions it is given.
func TestMatVecBlockPositionTails(t *testing.T) {
	const guard = 8
	sentinel := math.Float32frombits(0x7fc0dead)
	in := &kernelInput{src: rand.New(rand.NewSource(3)), special: 8}
	for _, s := range []struct{ rows, cols int }{
		{32, 32}, {64, 32}, {32, 64},
		{padMax, padMax}, {padMax + 4, 32}, {32, padMax + 4}, {padMax + 1, padMax},
	} {
		m := in.floats(s.rows * s.cols)
		for n := 1; n <= 9; n++ {
			x := in.logits(n * s.cols)
			want := make([]float32, n*s.rows)
			for p := 0; p < n; p++ {
				matVecGo(want[p*s.rows:(p+1)*s.rows], m, x[p*s.cols:(p+1)*s.cols])
			}
			eachKernelPath(func() {
				got := make([]float32, n*s.rows+guard)
				for i := range got {
					got[i] = sentinel
				}
				matVecBlock(got[:n*s.rows], m, x, s.rows, s.cols, n)
				sameBits(t, "matVecBlock", got[:n*s.rows], want)
				for i, v := range got[n*s.rows:] {
					if math.Float32bits(v) != math.Float32bits(sentinel) {
						t.Fatalf("%d×%d, %d positions: matVecBlock wrote %#08x %d past its output", s.rows, s.cols, n, math.Float32bits(v), i)
					}
				}
			})
		}
	}
}

// eachKernelPath runs f with the kernels this CPU runs, and again, if
// those include the 256-bit ones, with the Go kernels of math.go alone,
// as on a CPU without AVX2.
func eachKernelPath(f func()) {
	f()
	if wideLanes {
		wideLanes = false
		defer func() { wideLanes = true }()
		f()
	}
}
