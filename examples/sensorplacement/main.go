// Sensorplacement walks the paper's deployment workflow: instrument a
// space densely for a training period, cluster the sensors by
// correlation, pick one near-mean representative per cluster (SMS), and
// show that the small set tracks the full network.
package main

import (
	"fmt"
	"log"

	"auditherm/internal/cluster"
	"auditherm/internal/dataset"
	"auditherm/internal/selection"
	"auditherm/internal/stats"
)

func main() {
	// Phase 1: dense deployment for a month.
	cfg := dataset.DefaultConfig()
	cfg.Days = 28
	cfg.NumLongOutages = 1
	cfg.NumShortOutages = 3
	d, err := dataset.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	md, err := dataset.NewModelData(d.Frame)
	if err != nil {
		log.Fatal(err)
	}
	trainWins, validWins := md.Split(dataset.Occupied, cfg.HVAC.OnHour, cfg.HVAC.OffHour, 0.1)
	trainX := dataset.CollectValid(md.Temps, md.Valid, trainWins)
	validX := dataset.CollectValid(md.Temps, md.Valid, validWins)
	fmt.Printf("dense phase: %d sensors, %d gap-free training steps\n", md.Temps.Rows(), trainX.Cols())

	// Phase 2: cluster by measurement correlation; let the eigengap
	// pick the cluster count.
	w, err := cluster.SimilarityMatrix(trainX, cluster.Correlation)
	if err != nil {
		log.Fatal(err)
	}
	res, err := cluster.SpectralCluster(w, 0, cluster.SpectralOptions{Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	members := res.Members()
	names := md.Sensors
	fmt.Printf("eigengap chose %d thermal zones:\n", res.K)
	for c, ms := range members {
		fmt.Printf("  zone %d:", c+1)
		for _, i := range ms {
			fmt.Printf(" %s", names[i])
		}
		fmt.Println()
	}

	// Phase 3: keep one near-mean sensor per zone.
	reps, err := selection.StratifiedNearMean(trainX, members)
	if err != nil {
		log.Fatal(err)
	}
	sel := make([][]int, len(reps))
	fmt.Print("long-term sensors to keep:")
	for c, i := range reps {
		sel[c] = []int{i}
		fmt.Printf(" %s (zone %d, at %.1fm x %.1fm)", names[i], c+1, d.Sensors[i].Pos.X, d.Sensors[i].Pos.Y)
	}
	fmt.Println()

	// Phase 4: verify on held-out weeks that the kept sensors track
	// each zone's mean temperature.
	errs, err := selection.ClusterMeanErrors(validX, members, sel)
	if err != nil {
		log.Fatal(err)
	}
	p99, err := stats.Percentile(errs, 99)
	if err != nil {
		log.Fatal(err)
	}
	p50, err := stats.Percentile(errs, 50)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("validation: zone-mean tracking error median %.2f degC, 99th percentile %.2f degC\n", p50, p99)
	fmt.Printf("the other %d sensors can be removed after the training phase\n", md.Temps.Rows()-len(reps))
}
