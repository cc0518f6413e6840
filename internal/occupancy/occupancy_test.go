package occupancy

import (
	"testing"
	"time"
)

var (
	start = time.Date(2013, time.January, 31, 0, 0, 0, 0, time.UTC)
	end   = time.Date(2013, time.May, 9, 0, 0, 0, 0, time.UTC)
)

func mustSchedule(t *testing.T) *Schedule {
	t.Helper()
	s, err := Generate(start, end, DefaultGeneratorConfig())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return s
}

func TestGenerateValidation(t *testing.T) {
	cfg := DefaultGeneratorConfig()
	cfg.Capacity = 0
	if _, err := Generate(start, end, cfg); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := Generate(end, start, DefaultGeneratorConfig()); err == nil {
		t.Error("reversed range accepted")
	}
}

func TestScheduleDeterminism(t *testing.T) {
	a := mustSchedule(t).Events()
	b := mustSchedule(t).Events()
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestScheduleRespectsCapacity(t *testing.T) {
	s := mustSchedule(t)
	for _, e := range s.Events() {
		if e.Attendees < 0 || e.Attendees > 90 {
			t.Errorf("event %v has %d attendees", e.Start, e.Attendees)
		}
		if !e.End.After(e.Start) {
			t.Errorf("event %v has non-positive duration", e.Start)
		}
	}
}

func TestFridaySeminarExists(t *testing.T) {
	// The paper's Fig. 2 snapshot: Friday March 22, 2013, 12:30, full
	// room.
	s := mustSchedule(t)
	at := time.Date(2013, time.March, 22, 12, 30, 0, 0, time.UTC)
	if got := s.CountAt(at); got < 70 {
		t.Errorf("Friday seminar occupancy = %d, want near capacity", got)
	}
}

func TestCountAtRamps(t *testing.T) {
	s := NewSchedule([]Event{{
		Start:     start.Add(10 * time.Hour),
		End:       start.Add(11 * time.Hour),
		Attendees: 60,
		Kind:      "class",
	}})
	if got := s.CountAt(start.Add(9 * time.Hour)); got != 0 {
		t.Errorf("an hour before: %d, want 0", got)
	}
	if got := s.CountAt(start.Add(10*time.Hour - 5*time.Minute)); got <= 0 || got >= 60 {
		t.Errorf("mid ramp-in: %d, want in (0,60)", got)
	}
	if got := s.CountAt(start.Add(10*time.Hour + 30*time.Minute)); got != 60 {
		t.Errorf("during event: %d, want 60", got)
	}
	if got := s.CountAt(start.Add(11*time.Hour + 5*time.Minute)); got <= 0 || got >= 60 {
		t.Errorf("mid ramp-out: %d, want in (0,60)", got)
	}
	if got := s.CountAt(start.Add(12 * time.Hour)); got != 0 {
		t.Errorf("an hour after: %d, want 0", got)
	}
}

func TestWeekendsMostlyEmpty(t *testing.T) {
	s := mustSchedule(t)
	// Saturday Feb 2, 2013: no classes, no seminar, no weekday meetings.
	day := time.Date(2013, time.February, 2, 0, 0, 0, 0, time.UTC)
	for h := 0; h < 24; h++ {
		if got := s.CountAt(day.Add(time.Duration(h) * time.Hour)); got != 0 {
			t.Errorf("Saturday %02d:00 occupancy = %d, want 0", h, got)
		}
	}
}

func TestNewCameraValidation(t *testing.T) {
	cfg := DefaultCameraConfig()
	cfg.Interval = 0
	if _, err := NewCamera(cfg); err == nil {
		t.Error("zero interval accepted")
	}
	cfg = DefaultCameraConfig()
	cfg.CountErrorStd = -1
	if _, err := NewCamera(cfg); err == nil {
		t.Error("negative error accepted")
	}
}

func TestCameraObserve(t *testing.T) {
	sched := mustSchedule(t)
	cam, err := NewCamera(DefaultCameraConfig())
	if err != nil {
		t.Fatal(err)
	}
	day := time.Date(2013, time.March, 22, 0, 0, 0, 0, time.UTC)
	s := cam.Observe(sched, day, day.AddDate(0, 0, 1))
	if want := 24 * 4; s.Len() != want {
		t.Fatalf("samples = %d, want %d", s.Len(), want)
	}
	// Counts are non-negative integers; empty room reads exactly zero.
	var sawPositive bool
	for i := 0; i < s.Len(); i++ {
		smp := s.At(i)
		if smp.Value < 0 || smp.Value != float64(int(smp.Value)) {
			t.Fatalf("count %v at %v is not a non-negative integer", smp.Value, smp.Time)
		}
		if smp.Value > 0 {
			sawPositive = true
		}
		if sched.CountAt(smp.Time) == 0 && smp.Value != 0 {
			t.Fatalf("camera reported %v people in an empty room at %v", smp.Value, smp.Time)
		}
	}
	if !sawPositive {
		t.Error("camera never saw the Friday seminar")
	}
}

func TestCameraCountingErrorBounded(t *testing.T) {
	sched := mustSchedule(t)
	cam, err := NewCamera(DefaultCameraConfig())
	if err != nil {
		t.Fatal(err)
	}
	day := time.Date(2013, time.March, 22, 0, 0, 0, 0, time.UTC)
	s := cam.Observe(sched, day, day.AddDate(0, 0, 1))
	for i := 0; i < s.Len(); i++ {
		smp := s.At(i)
		truth := float64(sched.CountAt(smp.Time))
		if diff := smp.Value - truth; diff > 8 || diff < -8 {
			t.Errorf("count error %v at %v too large", diff, smp.Time)
		}
	}
}
