// Quickstart: generate two weeks of auditorium data, identify a
// second-order thermal model on the first week, and predict the second
// week's occupied-mode temperatures.
package main

import (
	"fmt"
	"log"
	"time"

	"auditherm/internal/dataset"
	"auditherm/internal/sysid"
)

func main() {
	// 1. Simulate the instrumented auditorium for two weeks.
	cfg := dataset.DefaultConfig()
	cfg.Days = 14
	cfg.NumLongOutages = 0 // keep the quickstart gap-free
	cfg.NumShortOutages = 2
	d, err := dataset.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated %d days: %d sensors on a %v grid\n",
		cfg.Days, len(d.Sensors), cfg.GridStep)

	// 2. Assemble the identification problem: temperatures as outputs,
	// VAV airflow + occupancy + lighting + ambient as inputs.
	md, err := dataset.NewModelData(d.Frame)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Train on the first half of the usable occupied windows.
	trainWins, validWins := md.Split(dataset.Occupied, cfg.HVAC.OnHour, cfg.HVAC.OffHour, 0.1)
	model, err := sysid.Fit(md.Data, trainWins, sysid.SecondOrder, sysid.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	rho, _ := model.SpectralRadius()
	fmt.Printf("identified %v model over %d sensors (spectral radius %.3f)\n",
		model.Order, model.NumSensors(), rho)

	// 4. Free-run predict the held-out days, 13.5 hours ahead.
	horizon := int((13*time.Hour + 30*time.Minute) / cfg.GridStep)
	ev, err := sysid.Evaluate(model, md.Data, validWins, horizon)
	if err != nil {
		log.Fatal(err)
	}
	p90, err := ev.RMSPercentile(90)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("validated on %d days: 90th-percentile per-sensor RMS = %.2f degC over %v\n",
		len(validWins), p90, 13*time.Hour+30*time.Minute)
}
