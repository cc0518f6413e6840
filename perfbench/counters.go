package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"

	"auditherm/internal/obs"
)

// counters is a point-in-time copy of the obs.Default registry:
// counter values, and histogram sums under "<name>_sum".
type counters map[string]float64

func readCounters() counters {
	s := obs.Default.Snapshot()
	c := make(counters, len(s.Counters)+len(s.Histograms))
	for _, x := range s.Counters {
		c[x.Name] = float64(x.Value)
	}
	for _, h := range s.Histograms {
		c[h.Name+"_sum"] = h.Sum
	}
	return c
}

// since returns c minus an earlier snapshot, for every name.
func (c counters) since(before counters) counters {
	d := make(counters, len(c))
	for k, v := range c {
		d[k] = v - before[k]
	}
	return d
}

// ratio returns num / (num + other), or 0 when both are zero.
func ratio(num, other float64) float64 {
	if num+other == 0 {
		return 0
	}
	return num / (num + other)
}

// guardCounters are the counts that must repeat exactly when the same
// work runs again at one seed.
var guardCounters = []struct{ metric, counter string }{
	{"sysid.fits", "auditherm_sysid_fits_total"},
	{"dataset.sim_steps", "auditherm_dataset_sim_steps_total"},
	{"building.cells_stepped", "auditherm_building_cells_stepped_total"},
	{"mat.qr_factorizations", "auditherm_mat_qr_factorizations_total"},
	{"pipeline.stages", "auditherm_pipeline_stages_total"},
}

// checkRepeat requires the guard counts of two runs of the same work
// to be equal, recording a failed check for each that differs.
func (b *bench) checkRepeat(what string, first, again counters) {
	for _, g := range guardCounters {
		b.check(first[g.counter] == again[g.counter], "%s: %s is %.0f on one run and %.0f on a repeat at the same seed",
			what, g.metric, first[g.counter], again[g.counter])
	}
}

// peakRSSMB returns the process's peak resident set size in MB, read
// from VmHWM in /proc/self/status.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %q: %w", line, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
