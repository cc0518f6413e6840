package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"auditherm/internal/par"
)

// refNewQR is the At/Set formulation of NewQR that the raw-slice loops
// replaced, kept as their bit-identity reference: same loop order and
// the same par.For split over trailing columns.
func refNewQR(a *Dense) (*QR, error) {
	m, n := a.Dims()
	if m < n {
		return nil, fmt.Errorf("mat: QR of %dx%d matrix: %w", m, n, ErrShape)
	}
	qr := a.Clone()
	rdia := make([]float64, n)
	for k := 0; k < n; k++ {
		var nrm float64
		for i := k; i < m; i++ {
			nrm = math.Hypot(nrm, qr.At(i, k))
		}
		if nrm == 0 {
			rdia[k] = 0
			continue
		}
		if qr.At(k, k) < 0 {
			nrm = -nrm
		}
		for i := k; i < m; i++ {
			qr.Set(i, k, qr.At(i, k)/nrm)
		}
		qr.Set(k, k, qr.At(k, k)+1)
		applyCols := func(jlo, jhi int) {
			for j := k + 1 + jlo; j < k+1+jhi; j++ {
				var s float64
				for i := k; i < m; i++ {
					s += qr.At(i, k) * qr.At(i, j)
				}
				s = -s / qr.At(k, k)
				for i := k; i < m; i++ {
					qr.Set(i, j, qr.At(i, j)+s*qr.At(i, k))
				}
			}
		}
		if trailing := n - k - 1; trailing > 0 && (m-k)*trailing >= qrPanelParFlops {
			par.For(0, trailing, 1, applyCols)
		} else if trailing > 0 {
			applyCols(0, trailing)
		}
		rdia[k] = -nrm
	}
	return &QR{qr: qr, rdia: rdia}, nil
}

// refSolve is the At formulation of QR.Solve.
func refSolve(f *QR, b []float64) ([]float64, error) {
	m, n := f.qr.Dims()
	if !f.IsFullRank() {
		return nil, fmt.Errorf("mat: QR solve: %w", ErrSingular)
	}
	y := make([]float64, m)
	copy(y, b)
	for k := 0; k < n; k++ {
		if f.qr.At(k, k) == 0 {
			continue
		}
		var s float64
		for i := k; i < m; i++ {
			s += f.qr.At(i, k) * y[i]
		}
		s = -s / f.qr.At(k, k)
		for i := k; i < m; i++ {
			y[i] += s * f.qr.At(i, k)
		}
	}
	x := make([]float64, n)
	for k := n - 1; k >= 0; k-- {
		s := y[k]
		for j := k + 1; j < n; j++ {
			s -= f.qr.At(k, j) * x[j]
		}
		x[k] = s / f.rdia[k]
	}
	return x, nil
}

// refSpectralRadius is SpectralRadius's power iteration as it was
// before the reused buffers: a fresh MulVec product every iteration.
func refSpectralRadius(a *Dense, iters int) float64 {
	n := a.Rows()
	var best float64
	for r := 0; r <= n; r++ {
		x := make([]float64, n)
		if r == n {
			for i := range x {
				x[i] = 1
			}
		} else {
			x[r] = 1
		}
		var lam float64
		for it := 0; it < iters; it++ {
			y := make([]float64, n)
			for i := range y {
				y[i] = Dot(a.RawRow(i), x)
			}
			ny := Norm2(y)
			if ny == 0 {
				lam = 0
				break
			}
			lam = ny
			for i := range y {
				y[i] /= ny
			}
			x = y
		}
		if lam > best {
			best = lam
		}
	}
	return best
}

func sameBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, reference %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), reference %v (%#x)",
				name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestQRMatchesReference factors random tall matrices on both sides of
// the qrPanelParFlops gate, some with a zero column (the nrm == 0
// branch) and some rank-deficient, at 1 and 4 par workers, and requires
// the packed factor, R's diagonal and the least-squares solution to
// match the At/Set reference bit for bit.
func TestQRMatchesReference(t *testing.T) {
	shapes := [][2]int{{5, 5}, {40, 10}, {200, 27}, {1300, 30}, {3000, 40}}
	big := false
	for _, s := range shapes {
		if s[0]*(s[1]-1) >= qrPanelParFlops {
			big = true
		}
	}
	if !big {
		t.Fatal("no shape clears the qrPanelParFlops gate")
	}
	for si, sh := range shapes {
		for variant := 0; variant < 3; variant++ {
			a := randDense(sh[0], sh[1], int64(10*si+variant))
			switch variant {
			case 1: // a zero column
				for i := 0; i < sh[0]; i++ {
					a.Set(i, sh[1]/2, 0)
				}
			case 2: // rows scaled by powers of two
				for i := 0; i < sh[0]; i++ {
					row := a.RawRow(i)
					for j := range row {
						row[j] *= math.Ldexp(1, i%7-3)
					}
				}
			}
			b := randDense(sh[0], 1, int64(100+si)).Col(0)
			want, err := refNewQR(a)
			if err != nil {
				t.Fatal(err)
			}
			wantX, wantErr := refSolve(want, b)
			for _, workers := range []int{1, 4} {
				prev := par.SetDefaultWorkers(workers)
				got, err := NewQR(a)
				par.SetDefaultWorkers(prev)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%dx%d v%d w%d", sh[0], sh[1], variant, workers)
				sameBits(t, name+" packed QR", got.qr.data, want.qr.data)
				sameBits(t, name+" R diagonal", got.rdia, want.rdia)
				gotX, gotErr := got.Solve(b)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("%s: Solve error %v, reference %v", name, gotErr, wantErr)
				}
				sameBits(t, name+" solution", gotX, wantX)
			}
		}
	}
}

// TestMulVecToMatchesDot: every output element of the four-row
// interleaved product is bit-for-bit the row's Dot, on both sides of
// the mulVecParFlops gate and for row counts that leave a remainder.
func TestMulVecToMatchesDot(t *testing.T) {
	for _, sh := range [][2]int{{1, 1}, {3, 5}, {7, 54}, {54, 54}, {301, 200}} {
		a := randDense(sh[0], sh[1], int64(sh[0]))
		x := randDense(sh[1], 1, 9).Col(0)
		want := make([]float64, sh[0])
		for i := range want {
			want[i] = Dot(a.RawRow(i), x)
		}
		dst := make([]float64, sh[0])
		a.MulVecTo(dst, x)
		sameBits(t, fmt.Sprintf("%dx%d MulVecTo", sh[0], sh[1]), dst, want)
		sameBits(t, fmt.Sprintf("%dx%d MulVec", sh[0], sh[1]), a.MulVec(x), want)
	}
}

// TestMulVecToAllocFree: below the parallel gate MulVecTo writes into
// the caller's buffer without allocating, which is what lets the power
// iteration reuse its two buffers.
func TestMulVecToAllocFree(t *testing.T) {
	a := randDense(54, 54, 1)
	x, dst := make([]float64, 54), make([]float64, 54)
	if n := testing.AllocsPerRun(100, func() { a.MulVecTo(dst, x) }); n != 0 {
		t.Fatalf("MulVecTo allocates %v times per call, want 0", n)
	}
}

// TestSpectralRadiusMatchesReference: the two-buffer power iteration
// returns the allocating reference's estimate bit for bit, including on
// companion matrices of the shape sysid's stability check builds.
func TestSpectralRadiusMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 2, 5, 12, 54} {
		a := randDense(n, n, int64(n))
		comp := NewDense(2*n, 2*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				comp.Set(i, j, 0.1*rng.NormFloat64())
				comp.Set(i, j+n, 0.05*rng.NormFloat64())
			}
			comp.Set(i+n, i, 1)
		}
		for _, m := range []*Dense{a, comp} {
			got, err := SpectralRadius(m, 300)
			if err != nil {
				t.Fatal(err)
			}
			want := refSpectralRadius(m, 300)
			sameBits(t, fmt.Sprintf("n=%d spectral radius", m.Rows()), []float64{got}, []float64{want})
		}
	}
}

// TestIndexPanicMessage: the inlinable bounds check keeps the old panic
// text.
func TestIndexPanicMessage(t *testing.T) {
	m := NewDense(2, 3)
	for _, c := range [][2]int{{-1, 0}, {2, 0}, {0, 3}, {0, -5}} {
		func() {
			defer func() {
				want := fmt.Sprintf("mat: index (%d,%d) out of range for 2x3 matrix", c[0], c[1])
				if got := fmt.Sprint(recover()); got != want {
					t.Errorf("At(%d,%d) panic %q, want %q", c[0], c[1], got, want)
				}
			}()
			m.Set(c[0], c[1], 1)
		}()
	}
}
