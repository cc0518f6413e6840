// Package occupancy models how people use the auditorium and how the
// paper's webcam observes them.
//
// The instrumented room is a ~90-seat multifunction space hosting
// classes, seminars and meetings. The ground-truth occupant count is a
// piecewise ramp process driven by a weekly event schedule; the Camera
// type then samples it every 15 minutes with counting error, matching
// the paper's offline photo-counting pipeline.
package occupancy

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"auditherm/internal/timeseries"
)

// Event is one scheduled use of the auditorium.
type Event struct {
	Start     time.Time
	End       time.Time
	Attendees int
	// Kind is a free-form label ("class", "seminar", "meeting").
	Kind string
}

// Schedule is a time-ordered list of non-overlapping events.
type Schedule struct {
	events []Event

	// The CountAt index, built once by newSchedule: event k's ramped
	// window opens at opens[k], and reach[k] is the latest ramped close
	// among events 0..k. Events are in start order and rampIn is
	// constant, so opens is non-decreasing; reach is by construction.
	opens, reach []time.Time
}

// newSchedule wraps start-ordered events and builds the CountAt index.
func newSchedule(events []Event) *Schedule {
	s := &Schedule{
		events: events,
		opens:  make([]time.Time, len(events)),
		reach:  make([]time.Time, len(events)),
	}
	for k, e := range events {
		s.opens[k] = e.Start.Add(-rampIn)
		s.reach[k] = e.End.Add(rampOut)
		if k > 0 && s.reach[k].Before(s.reach[k-1]) {
			s.reach[k] = s.reach[k-1]
		}
	}
	return s
}

// Events returns a copy of the scheduled events in start order.
func (s *Schedule) Events() []Event {
	out := make([]Event, len(s.events))
	copy(out, s.events)
	return out
}

// CountAt returns the ground-truth occupant count at time t. Occupants
// ramp in linearly over rampIn before the event start and ramp out over
// rampOut after the event end.
const (
	rampIn  = 10 * time.Minute
	rampOut = 10 * time.Minute
)

// CountAt returns the ground-truth number of occupants at time t.
//
// It visits only the events whose ramped window can cover t, in
// schedule order, so the float sum is the one a scan over every event
// would make: events [hi:] open after t, and every event before lo
// closed before t (reach[lo-1] < t).
func (s *Schedule) CountAt(t time.Time) int {
	hi := sort.Search(len(s.events), func(k int) bool { return t.Before(s.opens[k]) })
	lo := sort.Search(hi, func(k int) bool { return !t.After(s.reach[k]) })
	var total float64
	for k := lo; k < hi; k++ {
		e := &s.events[k]
		switch {
		case t.Before(e.Start.Add(-rampIn)) || t.After(e.End.Add(rampOut)):
			continue
		case t.Before(e.Start):
			frac := 1 - e.Start.Sub(t).Seconds()/rampIn.Seconds()
			total += frac * float64(e.Attendees)
		case t.After(e.End):
			frac := 1 - t.Sub(e.End).Seconds()/rampOut.Seconds()
			total += frac * float64(e.Attendees)
		default:
			total += float64(e.Attendees)
		}
	}
	return int(total + 0.5)
}

// GeneratorConfig parameterizes the weekly schedule generator.
type GeneratorConfig struct {
	// Capacity caps attendance of any event.
	Capacity int
	// Seed drives event-to-event attendance jitter and ad-hoc meetings.
	Seed int64
	// MeetingRate is the expected number of ad-hoc weekday meetings per
	// day.
	MeetingRate float64
}

// DefaultGeneratorConfig mirrors the paper's room: 90-seat capacity
// with regular classes, a Friday noon seminar and occasional meetings.
func DefaultGeneratorConfig() GeneratorConfig {
	return GeneratorConfig{Capacity: 90, Seed: 2, MeetingRate: 0.7}
}

// Generate builds a schedule covering [start, end):
//
//   - Mon/Wed/Fri 10:00-11:30 class, ~35 students
//   - Tue/Thu 13:00-14:30 class, ~50 students
//   - Fri 12:00-13:30 seminar, near capacity (the paper's Fig. 2
//     snapshot: Friday March 22 at 12:30, fully occupied)
//   - ad-hoc weekday meetings, 5-25 people, 1-2 hours
//
// Attendance jitters event to event; everything is deterministic in
// the seed.
func Generate(start, end time.Time, cfg GeneratorConfig) (*Schedule, error) {
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("occupancy: capacity %d must be positive", cfg.Capacity)
	}
	if end.Before(start) {
		return nil, fmt.Errorf("occupancy: end %v precedes start %v", end, start)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var events []Event
	addEvent := func(day time.Time, h, m int, dur time.Duration, attendees int, kind string) {
		if attendees > cfg.Capacity {
			attendees = cfg.Capacity
		}
		if attendees < 0 {
			attendees = 0
		}
		st := time.Date(day.Year(), day.Month(), day.Day(), h, m, 0, 0, day.Location())
		if st.Before(start) || !st.Before(end) {
			return
		}
		events = append(events, Event{Start: st, End: st.Add(dur), Attendees: attendees, Kind: kind})
	}
	for day := start.Truncate(24 * time.Hour); day.Before(end); day = day.Add(24 * time.Hour) {
		switch day.Weekday() {
		case time.Monday, time.Wednesday, time.Friday:
			addEvent(day, 10, 0, 90*time.Minute, 35+rng.Intn(11)-5, "class")
		case time.Tuesday, time.Thursday:
			addEvent(day, 13, 0, 90*time.Minute, 50+rng.Intn(11)-5, "class")
		}
		if day.Weekday() == time.Friday {
			addEvent(day, 12, 0, 90*time.Minute, cfg.Capacity-rng.Intn(8), "seminar")
		}
		if wd := day.Weekday(); wd != time.Saturday && wd != time.Sunday {
			if rng.Float64() < cfg.MeetingRate {
				hour := 9 + rng.Intn(8) // 9:00 .. 16:00
				addEvent(day, hour, 30, time.Duration(60+rng.Intn(61))*time.Minute,
					5+rng.Intn(21), "meeting")
			}
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Start.Before(events[j].Start) })
	return newSchedule(events), nil
}

// NewSchedule builds a schedule from explicit events (copied and
// sorted by start time). It rehydrates schedules persisted through the
// artifact store: NewSchedule(s.Events()) reproduces s exactly.
func NewSchedule(events []Event) *Schedule {
	out := make([]Event, len(events))
	copy(out, events)
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return newSchedule(out)
}

// CameraConfig parameterizes the webcam occupancy observer.
type CameraConfig struct {
	// Interval is the snapshot period (15 minutes in the paper).
	Interval time.Duration
	// CountErrorStd is the standard deviation of the counting error in
	// persons; heads are occasionally occluded or double counted.
	CountErrorStd float64
	// Seed drives the deterministic counting error.
	Seed int64
}

// DefaultCameraConfig matches the paper's deployment.
func DefaultCameraConfig() CameraConfig {
	return CameraConfig{Interval: 15 * time.Minute, CountErrorStd: 1.5, Seed: 3}
}

// Camera samples a schedule like the paper's webcam: a count every
// Interval with additive counting noise, clamped at zero.
type Camera struct {
	cfg CameraConfig
}

// NewCamera validates cfg and returns a camera.
func NewCamera(cfg CameraConfig) (*Camera, error) {
	if cfg.Interval <= 0 {
		return nil, fmt.Errorf("occupancy: camera interval %v must be positive", cfg.Interval)
	}
	if cfg.CountErrorStd < 0 {
		return nil, fmt.Errorf("occupancy: negative count error %v", cfg.CountErrorStd)
	}
	return &Camera{cfg: cfg}, nil
}

// Observe returns the camera's occupant-count series over [start, end).
func (c *Camera) Observe(sched *Schedule, start, end time.Time) *timeseries.Series {
	rng := rand.New(rand.NewSource(c.cfg.Seed))
	s := timeseries.NewSeries("occupancy")
	for t := start; t.Before(end); t = t.Add(c.cfg.Interval) {
		truth := float64(sched.CountAt(t))
		obs := truth
		if truth > 0 {
			obs += rng.NormFloat64() * c.cfg.CountErrorStd
		}
		if obs < 0 {
			obs = 0
		}
		s.Append(t, float64(int(obs+0.5)))
	}
	return s
}
