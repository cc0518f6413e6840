package serve

import (
	"container/list"
	"fmt"
	"runtime/debug"
	"sync"
)

// responseCache is a bounded LRU over rendered response bodies. The
// key is the endpoint name plus the canonical parameter hash, so two
// requests spelling the same effective configuration differently (one
// relying on defaults, one passing them explicitly) share an entry —
// and a warm response replays the cold run's bytes exactly.
type responseCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recent; values are *cacheEntry
	entries map[string]*list.Element
}

type cacheEntry struct {
	key  string
	body []byte
}

func newResponseCache(capacity int) *responseCache {
	return &responseCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[string]*list.Element),
	}
}

// get returns the cached body for key, marking it most recent.
func (c *responseCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// put stores body under key, evicting the least recent entry past
// capacity. Bodies are immutable once stored; callers must not mutate.
func (c *responseCache) put(key string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).body = body
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, body: body})
	for c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*cacheEntry).key)
	}
}

// len reports the current entry count.
func (c *responseCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// flightGroup coalesces concurrent identical cache misses: the first
// request for a key becomes the leader and computes; followers block
// on the leader's result instead of rebuilding the same pipeline (a
// cold burst of identical requests would otherwise thundering-herd the
// simulate stage).
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	body []byte
	err  error
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[string]*flightCall)}
}

// do runs fn once per key among concurrent callers. leader reports
// whether this caller executed fn (followers reuse its result). A panic
// in fn becomes the error every caller gets, and the key is released
// whatever fn does, so the next request for it computes afresh.
func (g *flightGroup) do(key string, fn func() ([]byte, error)) (body []byte, leader bool, err error) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		<-c.done
		return c.body, false, c.err
	}
	c := &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		close(c.done)
	}()

	c.body, c.err = callRecovering(fn)
	return c.body, true, c.err
}

// panicError is a panic recovered from a computation. Its message
// carries only the panic value; Stack is for the server log.
type panicError struct {
	Value any
	Stack []byte
}

func (e *panicError) Error() string { return fmt.Sprintf("serve: computation panicked: %v", e.Value) }

// callRecovering runs fn and returns a panic in it as a *panicError.
func callRecovering(fn func() ([]byte, error)) (body []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			body, err = nil, &panicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}
