// Modelcompare reproduces the paper's Figure 4 story on fresh data:
// first-order vs second-order prediction of one sensor over a full
// occupied day, rendered as an ASCII chart.
package main

import (
	"fmt"
	"log"
	"strings"

	"auditherm/internal/dataset"
	"auditherm/internal/stats"
	"auditherm/internal/sysid"
)

func main() {
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
	window := validWins[0]

	// Sensor 1 sits at the back of the room, far from the outlets: the
	// hardest spot for a model driven by the front thermostat zone.
	sensorRow := 0
	for i, sp := range d.Sensors {
		if sp.ID == 1 {
			sensorRow = i
		}
	}

	var curves [2][]float64
	var measured []float64
	var lastStep int
	for oi, order := range []sysid.Order{sysid.FirstOrder, sysid.SecondOrder} {
		m, err := sysid.Fit(md.Data, trainWins, order, sysid.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		pred, meas, first, err := sysid.PredictWindow(m, md.Data, window)
		if err != nil {
			log.Fatal(err)
		}
		curves[oi] = pred.Row(sensorRow)
		measured = meas.Row(sensorRow)
		lastStep = first + pred.Cols()
	}
	// The two models consume different numbers of initial-condition
	// steps; both end at the same run end, so align on the common
	// suffix.
	n := len(curves[0])
	if len(curves[1]) < n {
		n = len(curves[1])
	}
	if len(measured) < n {
		n = len(measured)
	}
	curves[0] = curves[0][len(curves[0])-n:]
	curves[1] = curves[1][len(curves[1])-n:]
	measured = measured[len(measured)-n:]
	firstStep := lastStep - n

	fmt.Printf("sensor 1, %s (validation day)\n\n", d.Frame.Grid.Time(firstStep).Format("Mon Jan 2 2006"))
	lo, hi, err := stats.MinMax(append(append([]float64{}, measured...), curves[0]...))
	if err != nil {
		log.Fatal(err)
	}
	const width = 48
	plot := func(v float64) int {
		p := int((v - lo) / (hi - lo) * float64(width-1))
		if p < 0 {
			p = 0
		}
		if p >= width {
			p = width - 1
		}
		return p
	}
	fmt.Printf("%-7s %-*s  measured(*) first(1) second(2)\n", "time", width, fmt.Sprintf("%.1f degC %*s %.1f degC", lo, width-18, "", hi))
	for k := 0; k < len(measured); k += 2 {
		row := []byte(strings.Repeat(".", width))
		row[plot(curves[0][k])] = '1'
		row[plot(curves[1][k])] = '2'
		row[plot(measured[k])] = '*'
		fmt.Printf("%-7s %s\n", d.Frame.Grid.Time(firstStep+k).Format("15:04"), row)
	}

	rms1 := stats.RMSError(curves[0], measured)
	rms2 := stats.RMSError(curves[1], measured)
	fmt.Printf("\nday RMS: first-order %.2f degC, second-order %.2f degC\n", rms1, rms2)
	if rms2 < rms1 {
		fmt.Println("the second-order model captures the supply-air mixing delay the first-order model misses")
	}
}
