package main

// Span recording at the layer seams. The benchmark wraps the calls into
// each layer from its own files — the load client, an http.RoundTripper
// on each client, an http.Handler around each server, the proxy's
// per-backend transport, and the sumd flush sink — so the program under
// test is unchanged. Spans stay in memory and are written once, at exit.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parsum/internal/batch"
	"parsum/internal/keyed"
)

// Span is one timed interval at a layer boundary. Spans of one request
// share Trace; Parent is the ID of the span that caused this one (0 for
// a root). Start and End are nanoseconds since the recorder was made.
type Span struct {
	Name   string `json:"name"`
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's length in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Recorder collects spans while it is on. A nil *Recorder records
// nothing, which is how untraced runs pay no tracing cost.
type Recorder struct {
	t0  time.Time
	on  atomic.Bool
	ids atomic.Uint64

	mu    sync.Mutex
	spans []Span
}

// NewRecorder returns a recorder that is off until SetOn(true).
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// SetOn starts or stops recording.
func (r *Recorder) SetOn(on bool) { r.on.Store(on) }

// spanRef identifies a span across a context or an HTTP hop.
type spanRef struct{ trace, id uint64 }

type spanKey struct{}

// Active is an open span. End records it; a nil *Active is a no-op.
type Active struct {
	r *Recorder
	s Span
}

// Start opens a span named name whose parent is the span carried by ctx,
// if any, and returns ctx carrying the new span.
func (r *Recorder) Start(ctx context.Context, name string) (context.Context, *Active) {
	if r == nil || !r.on.Load() {
		return ctx, nil
	}
	id := r.ids.Add(1)
	s := Span{Name: name, Trace: id, ID: id, Start: int64(time.Since(r.t0))}
	if p, ok := ctx.Value(spanKey{}).(spanRef); ok {
		s.Trace, s.Parent = p.trace, p.id
	}
	return context.WithValue(ctx, spanKey{}, spanRef{s.Trace, id}), &Active{r: r, s: s}
}

// End closes and records the span.
func (a *Active) End() {
	if a == nil {
		return
	}
	a.s.End = int64(time.Since(a.r.t0))
	a.r.mu.Lock()
	a.r.spans = append(a.r.spans, a.s)
	a.r.mu.Unlock()
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteSpans writes spans as one JSON array, one span per line.
func WriteSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	_, _ = w.WriteString("[\n")
	for i, s := range spans {
		b, _ := json.Marshal(s)
		_, _ = w.Write(b)
		if i < len(spans)-1 {
			_ = w.WriteByte(',')
		}
		_ = w.WriteByte('\n')
	}
	_, _ = w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SelfTimes returns each span's self time: its duration minus the union
// of its children's intervals (clipped to the parent). Children may
// overlap — the proxy's replica legs run concurrently — so they are
// merged as intervals, never summed.
func SelfTimes(spans []Span) map[uint64]int64 {
	kids := make(map[uint64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of kids' intervals inside p.
func covered(p Span, kids []Span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo > curHi:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	if len(ivs) > 0 {
		total += curHi - curLo
	}
	return total
}

// spanHeader carries "<trace>-<id>" in hex from a client span to the
// server handler it calls.
const spanHeader = "X-Bench-Span"

func injectSpan(ctx context.Context, h http.Header) {
	if p, ok := ctx.Value(spanKey{}).(spanRef); ok {
		h.Set(spanHeader, fmt.Sprintf("%x-%x", p.trace, p.id))
	}
}

func extractSpan(ctx context.Context, h http.Header) context.Context {
	var p spanRef
	if _, err := fmt.Sscanf(h.Get(spanHeader), "%x-%x", &p.trace, &p.id); err != nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, p)
}

// clientTransport forwards the caller's span to the server in a header.
type clientTransport struct{ base http.RoundTripper }

func (t clientTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if _, ok := req.Context().Value(spanKey{}).(spanRef); ok {
		req = req.Clone(req.Context())
		injectSpan(req.Context(), req.Header)
	}
	return t.base.RoundTrip(req)
}

// legTransport wraps the proxy's per-backend transport: each replica leg
// is a "proxy.leg" span under the proxy handler span that the proxy
// passes down in the request context.
type legTransport struct {
	rec  *Recorder
	base http.RoundTripper
}

func (t legTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ctx, sp := t.rec.Start(req.Context(), "proxy.leg")
	if sp != nil {
		req = req.Clone(ctx)
		injectSpan(ctx, req.Header)
	}
	resp, err := t.base.RoundTrip(req)
	sp.End()
	return resp, err
}

// traceHandler records a "<layer>.handler.<route>" span around h, as a
// child of the span named in the request header.
func traceHandler(rec *Recorder, layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := strings.ReplaceAll(strings.TrimPrefix(r.URL.Path, "/v1/"), "/", "_")
		ctx, sp := rec.Start(extractSpan(r.Context(), r.Header), layer+".handler."+route)
		if sp != nil {
			r = r.WithContext(ctx)
		}
		h.ServeHTTP(w, r)
		sp.End()
	})
}

// fullSink is what sumd's async flush sink implements; the wrapper must
// keep all three, or keyed writes answer 501.
type fullSink interface {
	batch.Sink
	batch.SliceSink
	batch.KeyedSink
}

// applySink records a "shard.apply" span around every flush-group apply
// (sumdsrv.Options.WrapSink). Flushes serve many requests, so these
// spans are roots.
type applySink struct {
	rec   *Recorder
	inner fullSink
}

// wrapApply is the WrapSink hook; a sink without the full surface is
// left unwrapped.
func wrapApply(rec *Recorder) func(batch.Sink) batch.Sink {
	return func(s batch.Sink) batch.Sink {
		if fs, ok := s.(fullSink); ok {
			return applySink{rec: rec, inner: fs}
		}
		return s
	}
}

func (a applySink) span(f func()) {
	_, sp := a.rec.Start(context.Background(), "shard.apply")
	f()
	sp.End()
}

func (a applySink) AddBatch(xs []float64)            { a.span(func() { a.inner.AddBatch(xs) }) }
func (a applySink) SubBatch(xs []float64)            { a.span(func() { a.inner.SubBatch(xs) }) }
func (a applySink) AddBatches(bs [][]float64)        { a.span(func() { a.inner.AddBatches(bs) }) }
func (a applySink) SubBatches(bs [][]float64)        { a.span(func() { a.inner.SubBatches(bs) }) }
func (a applySink) AddKeyedBatches(bs []keyed.Batch) { a.span(func() { a.inner.AddKeyedBatches(bs) }) }
func (a applySink) SubKeyedBatches(bs []keyed.Batch) { a.span(func() { a.inner.SubKeyedBatches(bs) }) }
