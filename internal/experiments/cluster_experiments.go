package experiments

import (
	"fmt"
	"strings"

	"auditherm/internal/cluster"
	"auditherm/internal/dataset"
	"auditherm/internal/stats"
)

// ClusteringResult is one metric's clustering outcome (half of Fig. 6).
type ClusteringResult struct {
	Metric cluster.Metric
	// K chosen by the largest log-eigengap.
	K int
	// Eigenvalues of the graph Laplacian, ascending.
	Eigenvalues []float64
	// ClusterIDs lists each cluster's member sensor IDs (paper
	// numbering).
	ClusterIDs [][]int
	// MeanTemp is each cluster's mean temperature over training data.
	MeanTemp []float64
	// members holds wireless-local indices for downstream experiments.
	members [][]int
}

// Figure6 clusters the wireless sensors with both metrics on the
// training data, choosing k by the largest log-eigengap.
func Figure6(e *Env) (euclid, corr *ClusteringResult, err error) {
	euclid, err = e.clusterWith(cluster.Euclidean, 0)
	if err != nil {
		return nil, nil, err
	}
	corr, err = e.clusterWith(cluster.Correlation, 0)
	if err != nil {
		return nil, nil, err
	}
	return euclid, corr, nil
}

// clusterWith runs spectral clustering on the training traces; pass
// k <= 0 for eigengap selection.
func (e *Env) clusterWith(metric cluster.Metric, k int) (*ClusteringResult, error) {
	x := e.WirelessTrainTraces()
	w, err := cluster.SimilarityMatrixOpts(x, metric, cluster.SimilarityOptions{
		CorrelationSharpness: CorrelationSharpness,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: %v similarity: %w", metric, err)
	}
	sr, err := cluster.SpectralCluster(w, k, cluster.SpectralOptions{Seed: 11})
	if err != nil {
		return nil, fmt.Errorf("experiments: %v spectral clustering: %w", metric, err)
	}
	res := &ClusteringResult{
		Metric:      metric,
		K:           sr.K,
		Eigenvalues: sr.Eigenvalues,
		members:     sr.Members(),
	}
	for _, ms := range res.members {
		ids := make([]int, len(ms))
		for i, local := range ms {
			ids[i] = e.SensorID(e.WirelessIdx[local])
		}
		res.ClusterIDs = append(res.ClusterIDs, ids)
		mean, err := cluster.MeanTrace(x, ms)
		if err != nil {
			return nil, err
		}
		res.MeanTemp = append(res.MeanTemp, cluster.MeanOfTrace(mean))
	}
	return res, nil
}

// String renders the clustering like the paper's Fig. 6 panels.
func (r *ClusteringResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6 (%v): k=%d by largest log-eigengap\n", r.Metric, r.K)
	fmt.Fprintf(&b, "eigenvalues: ")
	for _, v := range r.Eigenvalues {
		fmt.Fprintf(&b, "%.3g ", v)
	}
	b.WriteByte('\n')
	for c, ids := range r.ClusterIDs {
		fmt.Fprintf(&b, "cluster %d (mean %.2f degC): sensors %v\n", c+1, r.MeanTemp[c], ids)
	}
	return b.String()
}

// IntraClusterResult is one (metric, k) panel of Figs. 7/8: the
// distribution of intra-cluster maximum temperature differences and
// the cluster-ordered correlation map.
type IntraClusterResult struct {
	Metric cluster.Metric
	K      int
	// DiffCDF holds, per cluster, the sorted intra-cluster pairwise
	// maximum temperature differences (CDF material).
	DiffCDF [][]float64
	// Diff95 is the 95th percentile of each cluster's differences (the
	// paper's headline numbers), NaN for singleton clusters.
	Diff95 []float64
	// Overall95 is the 95th percentile across all sensors.
	Overall95 float64
	// Order is the sensor ID ordering (grouped by cluster) of CorrMap.
	Order []int
	// CorrMap is the correlation matrix in cluster order.
	CorrMap [][]float64
	// members holds wireless-local per-cluster indices.
	members [][]int
}

// IntraCluster evaluates one metric at one k on validation data
// (Figs. 7 and 8 are this for Euclidean k=3,4,5 and correlation
// k=2,3,4,5).
func IntraCluster(e *Env, metric cluster.Metric, k int) (*IntraClusterResult, error) {
	cl, err := e.clusterWith(metric, k)
	if err != nil {
		return nil, err
	}
	wins := e.ValidWindows(dataset.Occupied)
	all := e.AllValidTraces(wins)
	cols := make([]int, all.Cols())
	for i := range cols {
		cols[i] = i
	}
	x := all.SubMatrix(e.WirelessIdx, cols)

	res := &IntraClusterResult{Metric: metric, K: cl.K, members: cl.members}
	for _, ms := range cl.members {
		diffs := cluster.PairwiseMaxDiffs(x, ms)
		stats95 := nanPercentile(diffs, 95)
		res.DiffCDF = append(res.DiffCDF, sortedCopy(diffs))
		res.Diff95 = append(res.Diff95, stats95)
	}
	allIdx := make([]int, x.Rows())
	for i := range allIdx {
		allIdx[i] = i
	}
	res.Overall95 = nanPercentile(cluster.PairwiseMaxDiffs(x, allIdx), 95)

	// Correlation map in cluster order.
	corr, err := stats.CorrelationMatrix(x)
	if err != nil {
		return nil, err
	}
	var order []int
	for _, ms := range cl.members {
		order = append(order, ms...)
	}
	res.CorrMap = make([][]float64, len(order))
	for i, a := range order {
		res.Order = append(res.Order, e.SensorID(e.WirelessIdx[a]))
		res.CorrMap[i] = make([]float64, len(order))
		for j, b := range order {
			res.CorrMap[i][j] = corr.At(a, b)
		}
	}
	return res, nil
}

// MeanIntraClusterCorrelation returns the average off-diagonal
// correlation between sensors sharing a cluster: the paper's claim is
// that correlation-metric clusters score higher here than Euclidean
// ones.
func (r *IntraClusterResult) MeanIntraClusterCorrelation() float64 {
	var sum float64
	var n int
	// CorrMap is cluster-ordered; walk the per-cluster diagonal blocks.
	at := 0
	for _, ms := range r.members {
		for i := 0; i < len(ms); i++ {
			for j := i + 1; j < len(ms); j++ {
				sum += r.CorrMap[at+i][at+j]
				n++
			}
		}
		at += len(ms)
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func nanPercentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v, err := stats.Percentile(xs, q)
	if err != nil {
		return 0
	}
	return v
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// String summarizes the panel.
func (r *IntraClusterResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v clustering, k=%d\n", r.Metric, r.K)
	for c := range r.DiffCDF {
		fmt.Fprintf(&b, "cluster %d: %d pairs, 95th pct max temp diff %.2f degC\n",
			c+1, len(r.DiffCDF[c]), r.Diff95[c])
	}
	fmt.Fprintf(&b, "overall 95th pct: %.2f degC, mean intra-cluster correlation %.2f\n",
		r.Overall95, r.MeanIntraClusterCorrelation())
	return b.String()
}

// Figure7 runs the Euclidean panels (k = 3, 4, 5).
func Figure7(e *Env) ([]*IntraClusterResult, error) {
	var out []*IntraClusterResult
	for _, k := range []int{3, 4, 5} {
		r, err := IntraCluster(e, cluster.Euclidean, k)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Figure8 runs the correlation panels (k = 2, 3, 4, 5).
func Figure8(e *Env) ([]*IntraClusterResult, error) {
	var out []*IntraClusterResult
	for _, k := range []int{2, 3, 4, 5} {
		r, err := IntraCluster(e, cluster.Correlation, k)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
