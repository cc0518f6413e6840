// Package sensornet simulates the paper's wireless monitoring system:
// Emerson wireless thermostats modified to report temperature, sending
// over Bluetooth to a base station that forwards readings to a cloud
// database.
//
// The simulation reproduces the dataset artifacts the paper's pipeline
// has to survive: per-node calibration offsets (the +-0.5 degC sensor
// accuracy), read noise, event-driven reporting (a reading is sent
// only when it differs from the last sent value by 0.1 degC), radio
// losses, and multi-hour to multi-day server outages that carve the
// trace into disjoint segments.
package sensornet

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"auditherm/internal/timeseries"
)

// NodeConfig parameterizes one wireless sensor node.
type NodeConfig struct {
	// ReportThreshold is the change (degC) that triggers a transmission
	// (0.1 degC for the paper's hardware).
	ReportThreshold float64
	// CalibrationStd is the standard deviation of the fixed per-node
	// calibration offset (the paper's sensors are +-0.5 degC accurate).
	CalibrationStd float64
	// ReadNoiseStd is the per-reading noise standard deviation.
	ReadNoiseStd float64
	// LossProb is the probability a transmission is lost in the radio.
	LossProb float64
}

// DefaultNodeConfig matches the paper's hardware characteristics.
func DefaultNodeConfig() NodeConfig {
	return NodeConfig{
		ReportThreshold: 0.1,
		CalibrationStd:  0.2,
		ReadNoiseStd:    0.05,
		LossProb:        0.02,
	}
}

// Node is one wireless temperature sensor.
type Node struct {
	name     string
	cfg      NodeConfig
	offset   float64
	rng      *rand.Rand
	lastSent float64
	hasSent  bool
}

// NewNode creates a node with a deterministic calibration offset drawn
// from the seed.
func NewNode(name string, cfg NodeConfig, seed int64) (*Node, error) {
	if cfg.ReportThreshold < 0 {
		return nil, fmt.Errorf("sensornet: node %s: negative report threshold %v", name, cfg.ReportThreshold)
	}
	if cfg.CalibrationStd < 0 || cfg.ReadNoiseStd < 0 {
		return nil, fmt.Errorf("sensornet: node %s: negative noise parameter", name)
	}
	if cfg.LossProb < 0 || cfg.LossProb >= 1 {
		return nil, fmt.Errorf("sensornet: node %s: loss probability %v outside [0,1)", name, cfg.LossProb)
	}
	rng := rand.New(rand.NewSource(seed))
	return &Node{
		name:   name,
		cfg:    cfg,
		offset: rng.NormFloat64() * cfg.CalibrationStd,
		rng:    rng,
	}, nil
}

// Name returns the node's channel name.
func (n *Node) Name() string { return n.name }

// Read samples the true temperature and decides whether to transmit.
// The returned reading includes calibration offset and read noise; ok
// reports whether a transmission reached the air (threshold passed and
// the radio did not drop it).
func (n *Node) Read(truth float64) (reading float64, ok bool) {
	reading = truth + n.offset + n.rng.NormFloat64()*n.cfg.ReadNoiseStd
	if n.hasSent && absf(reading-n.lastSent) < n.cfg.ReportThreshold {
		return reading, false
	}
	// The node considers the value sent even if the radio drops it;
	// real report-on-change firmware has no link-layer feedback to the
	// application, which is exactly what produces stale holds.
	n.lastSent = reading
	n.hasSent = true
	if n.rng.Float64() < n.cfg.LossProb {
		return reading, false
	}
	return reading, true
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Outage is a closed-open time window during which the backend stores
// nothing.
type Outage struct {
	Start, End time.Time
}

// Contains reports whether t falls inside the outage.
func (o Outage) Contains(t time.Time) bool {
	return !t.Before(o.Start) && t.Before(o.End)
}

// outageSet is a union of outage windows kept as sorted, disjoint,
// non-empty closed-open intervals, so membership is a binary search.
// Overlapping and touching windows are merged; empty ones vanish.
type outageSet []Outage

func newOutageSet(outages []Outage) outageSet {
	sorted := make([]Outage, 0, len(outages))
	for _, o := range outages {
		if o.Start.Before(o.End) {
			sorted = append(sorted, o)
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start.Before(sorted[j].Start) })
	var set outageSet
	for _, o := range sorted {
		if n := len(set); n > 0 && !set[n-1].End.Before(o.Start) {
			if set[n-1].End.Before(o.End) {
				set[n-1].End = o.End
			}
			continue
		}
		set = append(set, o)
	}
	return set
}

// contains reports whether t falls inside any window of the set.
func (set outageSet) contains(t time.Time) bool {
	// The first window that ends after t is the only one that can hold
	// it: every earlier window ends at or before t.
	k := sort.Search(len(set), func(k int) bool { return t.Before(set[k].End) })
	return k < len(set) && !t.Before(set[k].Start)
}

// GenerateOutages builds a deterministic outage plan for [start, end):
// nLong multi-day server failures (2-6 days) and nShort sub-day
// glitches (1-10 hours). The paper's 98-day trace lost roughly a third
// of its days this way.
func GenerateOutages(start, end time.Time, nLong, nShort int, seed int64) []Outage {
	rng := rand.New(rand.NewSource(seed))
	span := end.Sub(start)
	var out []Outage
	for i := 0; i < nLong; i++ {
		dur := time.Duration(48+rng.Intn(97)) * time.Hour // 2-6 days
		at := time.Duration(rng.Int63n(int64(span)))
		s := start.Add(at)
		out = append(out, Outage{Start: s, End: minTime(s.Add(dur), end)})
	}
	for i := 0; i < nShort; i++ {
		dur := time.Duration(1+rng.Intn(10)) * time.Hour
		at := time.Duration(rng.Int63n(int64(span)))
		s := start.Add(at)
		out = append(out, Outage{Start: s, End: minTime(s.Add(dur), end)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// Store is the cloud database fed by the base station. Readings that
// arrive during an outage are lost (and counted: per-store via
// Dropped, process-wide via auditherm_sensornet_dropped_total).
type Store struct {
	outages outageSet
	series  map[string]*timeseries.Series
	order   []string
	dropped int64
}

// NewStore returns a store that drops data during the given outages.
func NewStore(outages []Outage) *Store {
	return &Store{
		outages: newOutageSet(outages),
		series:  make(map[string]*timeseries.Series),
	}
}

// InOutage reports whether the backend is down at t.
func (s *Store) InOutage(t time.Time) bool { return s.outages.contains(t) }

// Ingest records a reading unless the backend is down.
// It reports whether the reading was stored; drops are tallied on the
// store (Dropped) and on auditherm_sensornet_dropped_total.
func (s *Store) Ingest(channel string, t time.Time, v float64) bool {
	if s.InOutage(t) {
		s.dropped++
		droppedTotal.Inc()
		return false
	}
	ingestedTotal.Inc()
	ser, ok := s.series[channel]
	if !ok {
		ser = timeseries.NewSeries(channel)
		s.series[channel] = ser
		s.order = append(s.order, channel)
	}
	ser.Append(t, v)
	return true
}

// Dropped returns how many readings this store refused because the
// backend was inside an outage window.
func (s *Store) Dropped() int64 { return s.dropped }

// Series returns the stored series for a channel, or an error if the
// channel never stored a reading.
func (s *Store) Series(channel string) (*timeseries.Series, error) {
	ser, ok := s.series[channel]
	if !ok {
		return nil, fmt.Errorf("sensornet: store has no channel %q", channel)
	}
	return ser, nil
}

// Channels returns channel names in first-ingest order.
func (s *Store) Channels() []string {
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// Network couples a set of nodes to a store. Each Sample call reads
// every node against the true field and forwards transmissions.
type Network struct {
	nodes    []*Node
	store    *Store
	failures []outageSet // per node, in node order
}

// NewNetwork returns a network over the given nodes and store.
func NewNetwork(nodes []*Node, store *Store) (*Network, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("sensornet: network needs at least one node")
	}
	if store == nil {
		return nil, fmt.Errorf("sensornet: network needs a store")
	}
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if seen[n.Name()] {
			return nil, fmt.Errorf("sensornet: duplicate node name %q", n.Name())
		}
		seen[n.Name()] = true
	}
	return &Network{nodes: nodes, store: store, failures: make([]outageSet, len(nodes))}, nil
}

// SetNodeFailures marks windows during which the named node is dead
// (battery exhausted, firmware hang): its reads produce no
// transmissions. The paper's trace loses days to exactly this kind of
// per-sensor failure on top of backend outages.
func (n *Network) SetNodeFailures(name string, failures []Outage) error {
	for i, node := range n.nodes {
		if node.Name() == name {
			n.failures[i] = newOutageSet(failures)
			return nil
		}
	}
	return fmt.Errorf("sensornet: no node named %q", name)
}

// Sample reads every node at time t; truths must supply the true
// temperature per node, in node order.
func (n *Network) Sample(t time.Time, truths []float64) error {
	if len(truths) != len(n.nodes) {
		return fmt.Errorf("sensornet: %d truths for %d nodes", len(truths), len(n.nodes))
	}
	for i, node := range n.nodes {
		if n.failures[i].contains(t) {
			continue
		}
		if reading, ok := node.Read(truths[i]); ok {
			n.store.Ingest(node.Name(), t, reading)
		}
	}
	return nil
}

// Store returns the network's backing store.
func (n *Network) Store() *Store { return n.store }

// Nodes returns the network's nodes in order.
func (n *Network) Nodes() []*Node { return n.nodes }
