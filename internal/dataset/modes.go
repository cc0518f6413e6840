package dataset

import (
	"fmt"
	"math"

	"auditherm/internal/mat"
	"auditherm/internal/timeseries"
)

// Mode partitions the trace by HVAC operating mode, following the
// paper: occupied mode (HVAC actively controlling, 06:00-21:00) and
// unoccupied mode (minimum ventilation, 21:00-06:00).
type Mode int

// The two operating modes.
const (
	Occupied Mode = iota
	Unoccupied
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case Occupied:
		return "occupied"
	case Unoccupied:
		return "unoccupied"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// CollectValid gathers, for the given windows, the values of matrix m
// (rows-by-grid) at steps where mask is true, concatenated column-wise.
func CollectValid(m *mat.Dense, mask []bool, windows []timeseries.Segment) *mat.Dense {
	rows, _ := m.Dims()
	var cols []int
	for _, w := range windows {
		for k := w.Start; k < w.End; k++ {
			if mask[k] {
				cols = append(cols, k)
			}
		}
	}
	out := mat.NewDense(rows, len(cols))
	for i := 0; i < rows; i++ {
		src := m.RawRow(i)
		dst := out.RawRow(i)
		for j, c := range cols {
			dst[j] = src[c]
		}
	}
	return out
}

// FiniteFraction reports the fraction of finite entries in m.
func FiniteFraction(m *mat.Dense) float64 {
	rows, cols := m.Dims()
	if rows*cols == 0 {
		return 0
	}
	finite := 0
	for i := 0; i < rows; i++ {
		for _, v := range m.RawRow(i) {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				finite++
			}
		}
	}
	return float64(finite) / float64(rows*cols)
}
