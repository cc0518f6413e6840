package mat

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Eigen holds the eigendecomposition of a real symmetric matrix:
// A = V * diag(Values) * V^T with orthonormal V. Eigenvalues are sorted
// in ascending order and Vectors column j is the eigenvector for
// Values[j].
type Eigen struct {
	Values  []float64
	Vectors *Dense
}

// maxJacobiSweeps bounds the cyclic Jacobi iteration; convergence for
// the matrix sizes used here (tens of rows) is typically < 10 sweeps.
const maxJacobiSweeps = 100

// NewEigenSym computes the eigendecomposition of the symmetric matrix a
// using the cyclic Jacobi method. Only symmetric input is supported; the
// matrix is symmetrized as (A+A^T)/2 to absorb round-off asymmetry, but
// an error is returned when the asymmetry is structural.
func NewEigenSym(a *Dense) (*Eigen, error) {
	m, n := a.Dims()
	if m != n {
		return nil, fmt.Errorf("mat: eigendecomposition of %dx%d matrix: %w", m, n, ErrShape)
	}
	if !a.IsSymmetric(1e-8 * (1 + a.MaxAbs())) {
		return nil, fmt.Errorf("mat: eigendecomposition of non-symmetric matrix: %w", ErrShape)
	}
	// Work on a symmetrized copy.
	w := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			w.Set(i, j, 0.5*(a.At(i, j)+a.At(j, i)))
		}
	}
	v := Identity(n)
	eigensolvesTotal.Inc()
	for sweep := 0; sweep < maxJacobiSweeps; sweep++ {
		off := offDiagNorm(w)
		if off <= 1e-14*(1+w.MaxAbs()) {
			break
		}
		jacobiSweepsTotal.Inc()
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) <= 1e-18 {
					continue
				}
				app, aqq := w.At(p, p), w.At(q, q)
				// Compute the Jacobi rotation.
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				// Update rows/columns p and q of w.
				for k := 0; k < n; k++ {
					akp, akq := w.At(k, p), w.At(k, q)
					w.Set(k, p, c*akp-s*akq)
					w.Set(k, q, s*akp+c*akq)
				}
				for k := 0; k < n; k++ {
					apk, aqk := w.At(p, k), w.At(q, k)
					w.Set(p, k, c*apk-s*aqk)
					w.Set(q, k, s*apk+c*aqk)
				}
				// Accumulate eigenvectors.
				for k := 0; k < n; k++ {
					vkp, vkq := v.At(k, p), v.At(k, q)
					v.Set(k, p, c*vkp-s*vkq)
					v.Set(k, q, s*vkp+c*vkq)
				}
			}
		}
	}
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = w.At(i, i)
	}
	// Sort ascending, permuting eigenvectors to match.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return vals[idx[i]] < vals[idx[j]] })
	sorted := make([]float64, n)
	vec := NewDense(n, n)
	for j, id := range idx {
		sorted[j] = vals[id]
		vec.SetCol(j, v.Col(id))
	}
	return &Eigen{Values: sorted, Vectors: vec}, nil
}

func offDiagNorm(a *Dense) float64 {
	n := a.Rows()
	var s float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				s += a.At(i, j) * a.At(i, j)
			}
		}
	}
	return math.Sqrt(s)
}

// spectralScaleFloor is the magnitude past which SpectralRadius
// rescales its input: beyond ~1e150 the matvec norms overflow to +Inf,
// the iterate normalizes to the zero vector, and the estimate silently
// collapses to 0 — reporting a wildly unstable matrix as stable.
const spectralScaleFloor = 1e150

// ErrNonFinite is returned (wrapped) when an operation meets NaN or
// Inf entries it cannot give a meaningful answer for.
var ErrNonFinite = errors.New("mat: matrix has non-finite entries")

// SpectralRadius returns the largest absolute eigenvalue of a general
// square matrix, estimated by power iteration with deterministic
// restarts. It is used to check identified dynamics matrices for
// stability. For a zero matrix it returns 0.
//
// Matrices with NaN or Inf entries are rejected with ErrNonFinite
// (power iteration would silently report 0 for them: NaN loses every
// comparison), and huge-magnitude matrices are rescaled before
// iterating so intermediate norms cannot overflow — both failure modes
// previously let unstable identified models masquerade as stable.
func SpectralRadius(a *Dense, iters int) (float64, error) {
	m, n := a.Dims()
	if m != n {
		return 0, fmt.Errorf("mat: spectral radius of %dx%d matrix: %w", m, n, ErrShape)
	}
	if n == 0 {
		return 0, nil
	}
	if iters <= 0 {
		iters = 200
	}
	var mx float64
	for i := 0; i < n; i++ {
		for _, v := range a.RawRow(i) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0, fmt.Errorf("mat: spectral radius: %w", ErrNonFinite)
			}
			if av := math.Abs(v); av > mx {
				mx = av
			}
		}
	}
	if mx == 0 {
		return 0, nil
	}
	scale := 1.0
	if mx > spectralScaleFloor {
		// Iterate on a/mx (entries <= 1, norms <= n: no overflow) and
		// scale the estimate back. Only huge matrices take this path,
		// so ordinary estimates keep their exact historical values.
		scale = mx
		a = a.Scale(1 / mx)
	}
	var best float64
	// The iterate and the next product alternate between two buffers.
	x := make([]float64, n)
	y := make([]float64, n)
	// Deterministic restart vectors: unit basis directions plus the
	// all-ones vector to escape unlucky invariant subspaces.
	for r := 0; r <= n; r++ {
		for i := range x {
			x[i] = 0
			if r == n || i == r {
				x[i] = 1
			}
		}
		var lam float64
		for it := 0; it < iters; it++ {
			a.MulVecTo(y, x)
			ny := Norm2(y)
			if ny == 0 {
				lam = 0
				break
			}
			lam = ny
			for i := range y {
				y[i] /= ny
			}
			x, y = y, x
		}
		if lam > best {
			best = lam
		}
	}
	return scale * best, nil
}
