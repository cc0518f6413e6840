package main

import (
	"context"
	"io"
	"sync/atomic"

	"auditherm/internal/artifact"
)

// Span names of the store calls the timing wrapper records.
const (
	spanPut    = "artifact.put"
	spanEncode = "artifact.encode"
	spanStat   = "artifact.stat"
	spanOpen   = "artifact.open_decode"
)

// timedBackend records a span around every call into the wrapped
// artifact.Backend. Put is split into the caller's encode callback
// (a child span) and the rest: hashing, writing and syncing. An Open
// span lasts until the reader is closed, so it covers the caller's
// decode. Bytes written and read are counted as they pass.
type timedBackend struct {
	artifact.Backend
	rec   *recorder
	bytes *storeBytes
}

// storeBytes counts the bytes that pass through one or more wrappers.
type storeBytes struct{ wrote, read atomic.Int64 }

// timedCacher is a timedBackend over a store that also memoizes
// decoded values; the pipeline engine finds the ValueCacher by type
// assertion, so the wrapper must keep offering it.
type timedCacher struct {
	*timedBackend
	vc artifact.ValueCacher
}

func (t timedCacher) Value(d artifact.Digest) (any, bool) { return t.vc.Value(d) }
func (t timedCacher) PutValue(d artifact.Digest, v any)   { t.vc.PutValue(d, v) }

// wrapBackend returns b behind the timing wrapper, still offering b's
// ValueCacher when it has one, counting bytes into n.
func wrapBackend(b artifact.Backend, rec *recorder, n *storeBytes) artifact.Backend {
	t := &timedBackend{Backend: b, rec: rec, bytes: n}
	if vc, ok := b.(artifact.ValueCacher); ok {
		return timedCacher{timedBackend: t, vc: vc}
	}
	return t
}

func (t *timedBackend) Stat(ctx context.Context, key artifact.Digest) (artifact.Info, bool, error) {
	id := t.rec.begin(spanStat)
	defer t.rec.end(id)
	return t.Backend.Stat(ctx, key)
}

func (t *timedBackend) Put(ctx context.Context, key artifact.Digest, encode func(io.Writer) error) (artifact.Info, error) {
	id := t.rec.begin(spanPut)
	defer t.rec.end(id)
	return t.Backend.Put(ctx, key, func(w io.Writer) error {
		eid := t.rec.begin(spanEncode)
		defer t.rec.end(eid)
		return encode(countingWriter{w, &t.bytes.wrote})
	})
}

func (t *timedBackend) Open(ctx context.Context, key artifact.Digest) (io.ReadCloser, error) {
	id := t.rec.begin(spanOpen)
	rc, err := t.Backend.Open(ctx, key)
	if err != nil {
		t.rec.end(id)
		return nil, err
	}
	return &timedReader{rc: rc, t: t, id: id}, nil
}

// timedReader counts the bytes read and ends its Open span on Close.
type timedReader struct {
	rc     io.ReadCloser
	t      *timedBackend
	id     int
	closed bool
}

func (r *timedReader) Read(p []byte) (int, error) {
	n, err := r.rc.Read(p)
	r.t.bytes.read.Add(int64(n))
	return n, err
}

func (r *timedReader) Close() error {
	err := r.rc.Close()
	if !r.closed {
		r.closed = true
		r.t.rec.end(r.id)
	}
	return err
}

type countingWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (c countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}
