package main

import (
	"sort"
	"sync"
	"time"
)

// span is one interval the benchmark recorded around a call into a
// layer. Start and End are offsets from the recorder's epoch; Parent
// indexes the enclosing span, -1 for a root.
type span struct {
	Name       string
	Start, End time.Duration
	Parent     int
}

// recorder keeps the benchmark's spans in memory. The traced phases
// call into the program one layer at a time, so the innermost open
// span is the parent of the next one. A nil recorder records nothing,
// which lets untraced and traced phases share one code path.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	open  []int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span under the innermost open one and returns its id.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Start: time.Since(r.epoch), End: -1, Parent: parent})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = time.Since(r.epoch)
	for i := len(r.open) - 1; i >= 0; i-- {
		if r.open[i] == id {
			r.open = append(r.open[:i], r.open[i+1:]...)
			break
		}
	}
}

// done returns a copy of the closed spans recorded so far.
func (r *recorder) done() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTime is span i's duration minus the part of its interval that
// its direct children cover. Overlapping children count once, and a
// child running past its parent counts only inside the parent.
func selfTime(spans []span, i int) time.Duration {
	p := spans[i]
	type iv struct{ lo, hi time.Duration }
	var kids []iv
	for j, s := range spans {
		if j == i || s.Parent != i {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			kids = append(kids, iv{lo, hi})
		}
	}
	sort.Slice(kids, func(a, b int) bool { return kids[a].lo < kids[b].lo })
	var covered, curLo, curHi time.Duration
	for k, c := range kids {
		switch {
		case k == 0:
			curLo, curHi = c.lo, c.hi
		case c.lo <= curHi:
			curHi = max(curHi, c.hi)
		default:
			covered += curHi - curLo
			curLo, curHi = c.lo, c.hi
		}
	}
	if len(kids) > 0 {
		covered += curHi - curLo
	}
	return p.End - p.Start - covered
}

// selfByName sums the self time of every span per name, in seconds.
func selfByName(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for i, s := range spans {
		out[s.Name] += selfTime(spans, i).Seconds()
	}
	return out
}

// totalByName sums the full duration of every span per name, in
// seconds.
func totalByName(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += (s.End - s.Start).Seconds()
	}
	return out
}
