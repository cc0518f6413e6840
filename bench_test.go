// Package auditherm's benchmark harness regenerates every table and
// figure of the paper's evaluation (run with `go test -bench . -benchtime 1x`),
// plus ablation benches for the design choices DESIGN.md calls out and
// microbenches for the numerical kernels.
//
// Each experiment bench prints the rows/series the paper reports the
// first time it runs; EXPERIMENTS.md is generated from the same code
// via cmd/repro.
package auditherm

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"auditherm/internal/cluster"
	"auditherm/internal/dataset"
	"auditherm/internal/experiments"
	"auditherm/internal/mat"
	"auditherm/internal/sysid"
	"auditherm/internal/timeseries"
)

// env memoizes the shared paper-scale environment so the dataset is
// generated once per bench binary run.
func env(b *testing.B) *experiments.Env {
	b.Helper()
	e, err := experiments.Shared()
	if err != nil {
		b.Fatalf("generating dataset: %v", err)
	}
	return e
}

// printOnce keys one-time result printing per benchmark name.
var printOnce sync.Map

func report(b *testing.B, s fmt.Stringer) {
	if _, loaded := printOnce.LoadOrStore(b.Name(), true); !loaded {
		fmt.Printf("\n--- %s ---\n%s\n", b.Name(), s)
	}
}

func BenchmarkTableI(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableI(e)
		if err != nil {
			b.Fatal(err)
		}
		report(b, res)
	}
}

func BenchmarkTableII(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableII(e)
		if err != nil {
			b.Fatal(err)
		}
		report(b, res)
	}
}

func BenchmarkFigure2(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure2(e)
		if err != nil {
			b.Fatal(err)
		}
		report(b, res)
	}
}

func BenchmarkFigure3(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure3(e)
		if err != nil {
			b.Fatal(err)
		}
		report(b, res)
	}
}

func BenchmarkFigure4(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure4(e)
		if err != nil {
			b.Fatal(err)
		}
		report(b, res)
	}
}

func BenchmarkFigure5(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure5(e)
		if err != nil {
			b.Fatal(err)
		}
		report(b, res)
	}
}

func BenchmarkFigure6(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eu, co, err := experiments.Figure6(e)
		if err != nil {
			b.Fatal(err)
		}
		report(b, joined{eu, co})
	}
}

func BenchmarkFigure7(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := experiments.Figure7(e)
		if err != nil {
			b.Fatal(err)
		}
		report(b, panels(rs))
	}
}

func BenchmarkFigure8(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := experiments.Figure8(e)
		if err != nil {
			b.Fatal(err)
		}
		report(b, panels(rs))
	}
}

func BenchmarkFigure9(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure9(e)
		if err != nil {
			b.Fatal(err)
		}
		report(b, res)
	}
}

func BenchmarkFigure10(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure10(e)
		if err != nil {
			b.Fatal(err)
		}
		report(b, res)
	}
}

func BenchmarkFigure11(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure11(e)
		if err != nil {
			b.Fatal(err)
		}
		report(b, res)
	}
}

// joined and panels adapt multi-part results for report.
type joined []fmt.Stringer

func (j joined) String() string {
	var out string
	for _, s := range j {
		out += s.String()
	}
	return out
}

func panels(rs []*experiments.IntraClusterResult) fmt.Stringer {
	j := make(joined, len(rs))
	for i, r := range rs {
		j[i] = r
	}
	return j
}

// --- Ablations ---

// BenchmarkAblationPiecewiseLS compares the paper's piecewise least
// squares (equations never span gaps) against a naive fit that
// compacts all valid columns into one pseudo-continuous trace.
func BenchmarkAblationPiecewiseLS(b *testing.B) {
	e := env(b)
	data := e.Data
	trainW := e.TrainWindows(dataset.Occupied)
	validW := e.ValidWindows(dataset.Occupied)
	naiveTemps := dataset.CollectValid(e.Temps, e.Valid, trainW)
	naiveInputs := dataset.CollectValid(e.Inputs, e.Valid, trainW)
	naiveData := sysid.Data{Temps: naiveTemps, Inputs: naiveInputs}
	naiveWin := []timeseries.Segment{{Start: 0, End: naiveTemps.Cols()}}
	// Raw least squares (no stability projection) isolates the effect
	// of gap handling on the identified dynamics.
	rawOpts := sysid.Options{Ridge: 1e-6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		piece, err := sysid.Fit(data, trainW, sysid.SecondOrder, rawOpts)
		if err != nil {
			b.Fatal(err)
		}
		naive, err := sysid.Fit(naiveData, naiveWin, sysid.SecondOrder, rawOpts)
		if err != nil {
			b.Fatal(err)
		}
		evP, err := sysid.Evaluate(piece, data, validW, 54)
		if err != nil {
			b.Fatal(err)
		}
		evN, err := sysid.Evaluate(naive, data, validW, 54)
		if err != nil {
			b.Fatal(err)
		}
		pp, _ := evP.RMSPercentile(90)
		pn, _ := evN.RMSPercentile(90)
		report(b, header(fmt.Sprintf(
			"piecewise LS RMS90 = %.2f degC, gap-spanning (naive) RMS90 = %.2f degC", pp, pn)))
	}
}

// BenchmarkAblationStability compares the stabilized fit (spectral
// projection + B refit) against the raw least-squares model whose
// free-run predictions drift.
func BenchmarkAblationStability(b *testing.B) {
	e := env(b)
	data := e.Data
	trainW := e.TrainWindows(dataset.Occupied)
	validW := e.ValidWindows(dataset.Occupied)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stab, err := sysid.Fit(data, trainW, sysid.SecondOrder, sysid.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		raw, err := sysid.Fit(data, trainW, sysid.SecondOrder, sysid.Options{Ridge: 1e-6})
		if err != nil {
			b.Fatal(err)
		}
		evS, err := sysid.Evaluate(stab, data, validW, 54)
		if err != nil {
			b.Fatal(err)
		}
		evR, err := sysid.Evaluate(raw, data, validW, 54)
		if err != nil {
			b.Fatal(err)
		}
		ps, _ := evS.RMSPercentile(90)
		pr, _ := evR.RMSPercentile(90)
		rhoS, _ := stab.SpectralRadius()
		rhoR, _ := raw.SpectralRadius()
		report(b, header(fmt.Sprintf(
			"stabilized (rho %.3f) RMS90 = %.2f degC, raw LS (rho %.3f) RMS90 = %.2f degC",
			rhoS, ps, rhoR, pr)))
	}
}

// BenchmarkAblationEigengapScale compares the paper's log-eigengap
// cluster-count heuristic against the linear variant.
func BenchmarkAblationEigengapScale(b *testing.B) {
	e := env(b)
	x := e.WirelessTrainTraces()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, metric := range []cluster.Metric{cluster.Euclidean, cluster.Correlation} {
			w, err := cluster.SimilarityMatrix(x, metric)
			if err != nil {
				b.Fatal(err)
			}
			l, err := cluster.Laplacian(w)
			if err != nil {
				b.Fatal(err)
			}
			eig, err := mat.NewEigenSym(l)
			if err != nil {
				b.Fatal(err)
			}
			kLog, err := cluster.LogEigengapK(eig.Values, 8)
			if err != nil {
				b.Fatal(err)
			}
			kLin, err := cluster.LinearEigengapK(eig.Values, 8)
			if err != nil {
				b.Fatal(err)
			}
			report(b, header(fmt.Sprintf("%v: log-eigengap k=%d, linear-eigengap k=%d", metric, kLog, kLin)))
		}
	}
}

// BenchmarkAblationClusterAlgorithms compares spectral clustering with
// classic k-means and single-linkage at the same k on the training
// traces.
func BenchmarkAblationClusterAlgorithms(b *testing.B) {
	e := env(b)
	x := e.WirelessTrainTraces()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := cluster.SimilarityMatrix(x, cluster.Correlation)
		if err != nil {
			b.Fatal(err)
		}
		spec, err := cluster.SpectralCluster(w, 2, cluster.SpectralOptions{Seed: 11})
		if err != nil {
			b.Fatal(err)
		}
		km, err := cluster.KMeans(x, 2, cluster.KMeansOptions{Seed: 11})
		if err != nil {
			b.Fatal(err)
		}
		sl, err := cluster.SingleLinkage(cluster.DistanceMatrix(x), 2)
		if err != nil {
			b.Fatal(err)
		}
		report(b, header(fmt.Sprintf("spectral %v\nk-means  %v\nlinkage  %v",
			spec.Assign, km, sl)))
	}
}

type header string

func (h header) String() string { return string(h) }

// --- Microbenches for the numerical kernels ---

func BenchmarkKernelQRLeastSquares(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const m, n = 1900, 61 // the occupied-mode second-order fit size
	a := mat.NewDense(m, n)
	rhs := make([]float64, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
		rhs[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mat.LeastSquares(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelEigenSym25(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	const n = 25 // the sensor-graph Laplacian size
	g := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			g.Set(i, j, rng.NormFloat64())
		}
	}
	a := g.Add(g.T()).Scale(0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mat.NewEigenSym(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelModelSimulate(b *testing.B) {
	e := env(b)
	data := e.Data
	trainW := e.TrainWindows(dataset.Occupied)
	m, err := sysid.Fit(data, trainW, sysid.SecondOrder, sysid.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	t0 := e.Temps.Col(trainW[0].Start)
	tPrev := e.Temps.Col(trainW[0].Start)
	inputs := e.Inputs.Slice(0, e.Inputs.Rows(), trainW[0].Start, trainW[0].Start+54)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Simulate(t0, tPrev, inputs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelFitSecondOrder(b *testing.B) {
	e := env(b)
	data := e.Data
	trainW := e.TrainWindows(dataset.Occupied)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sysid.Fit(data, trainW, sysid.SecondOrder, sysid.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelDatasetDay(b *testing.B) {
	// Cost of simulating one day of the auditorium end to end.
	cfg := dataset.DefaultConfig()
	cfg.Days = 1
	cfg.NumLongOutages = 0
	cfg.NumShortOutages = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCoupling compares the paper's coupled spatial model
// (full A matrix, thermal interactions between locations) against
// traditional independent single-sensor models.
func BenchmarkAblationCoupling(b *testing.B) {
	e := env(b)
	data := e.Data
	trainW := e.TrainWindows(dataset.Occupied)
	validW := e.ValidWindows(dataset.Occupied)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coupled, err := sysid.Fit(data, trainW, sysid.SecondOrder, sysid.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		single, err := sysid.FitDecoupled(data, trainW, sysid.SecondOrder, sysid.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		evC, err := sysid.Evaluate(coupled, data, validW, 54)
		if err != nil {
			b.Fatal(err)
		}
		evS, err := sysid.Evaluate(single, data, validW, 54)
		if err != nil {
			b.Fatal(err)
		}
		pc, _ := evC.RMSPercentile(90)
		ps, _ := evS.RMSPercentile(90)
		report(b, header(fmt.Sprintf(
			"coupled spatial model RMS90 = %.2f degC, single-sensor models RMS90 = %.2f degC", pc, ps)))
	}
}

// BenchmarkControlStudy runs the closed-loop extension study: deadband
// thermostat logic vs MPC on the full and simplified identified models
// (comfort vs cooling energy over a simulated week).
func BenchmarkControlStudy(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.ControlStudy(e, 7)
		if err != nil {
			b.Fatal(err)
		}
		report(b, res)
	}
}

// BenchmarkVirtualSensing runs the Kalman-filter reconstruction study:
// estimating the 25 removed sensors from the 2 kept ones.
func BenchmarkVirtualSensing(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.VirtualSensing(e)
		if err != nil {
			b.Fatal(err)
		}
		report(b, res)
	}
}

// BenchmarkAblationReportThreshold sweeps the wireless nodes' report-
// on-change threshold: lower thresholds transmit more but keep the
// resampled trace fresher (fewer stale-hold gaps).
func BenchmarkAblationReportThreshold(b *testing.B) {
	base := dataset.DefaultConfig()
	base.Days = 14
	base.NumLongOutages = 0
	base.NumShortOutages = 0
	base.NodeFailureProb = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var lines string
		for _, thr := range []float64{0.05, 0.1, 0.3} {
			cfg := base
			cfg.Node.ReportThreshold = thr
			d, err := dataset.Generate(cfg)
			if err != nil {
				b.Fatal(err)
			}
			md, err := dataset.NewModelData(d.Frame)
			if err != nil {
				b.Fatal(err)
			}
			train, valid := md.Split(dataset.Occupied, cfg.HVAC.OnHour, cfg.HVAC.OffHour, 0.1)
			lines += fmt.Sprintf("threshold %.2f degC: %.1f%% missing, %d/%d usable occupied days\n",
				thr, 100*d.Frame.MissingFraction(), len(train)+len(valid), cfg.Days)
		}
		report(b, header(lines))
	}
}
