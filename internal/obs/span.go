package obs

import (
	"context"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Span is one timed phase of a request's life: request → admission queue →
// cache probe per tier → execute → run phases (warmup, measure). Spans form
// a tree under one root per request; start offsets are microseconds
// relative to the root so a span tree is self-contained. The tree *shape*
// is deterministic for a given request path (durations are wall clock), so
// span trees are diagnostics, never identity: manifests exclude them from
// Canonical().
//
// All methods are nil-safe — instrumented code calls Child/End/SetAttr
// unconditionally and a nil span (no recorder installed) makes them no-ops.
type Span struct {
	Name string `json:"name"`
	// StartUS is the span's start offset in microseconds from the root
	// span's start.
	StartUS int64 `json:"start_us"`
	// DurUS is the span's duration in microseconds (0 until End).
	DurUS    int64             `json:"dur_us"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []*Span           `json:"children,omitempty"`

	root      *Span // tree root; root.mu guards the whole tree
	mu        sync.Mutex
	wallStart time.Time
	ended     bool
}

// NewSpan starts a root span.
func NewSpan(name string) *Span {
	s := &Span{Name: name, wallStart: time.Now()}
	s.root = s
	return s
}

// Child starts a nested span under s.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	now := time.Now()
	c := &Span{
		Name:      name,
		StartUS:   now.Sub(s.root.wallStart).Microseconds(),
		root:      s.root,
		wallStart: now,
	}
	s.root.mu.Lock()
	s.Children = append(s.Children, c)
	s.root.mu.Unlock()
	return c
}

// End closes the span, fixing its duration. Set-once: later Ends are
// no-ops, so cleanup paths can End defensively without stretching a span
// that already closed.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := time.Since(s.wallStart).Microseconds()
	s.root.mu.Lock()
	if !s.ended {
		s.ended = true
		s.DurUS = d
	}
	s.root.mu.Unlock()
}

// SetAttr attaches a key/value annotation.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.root.mu.Lock()
	if s.Attrs == nil {
		s.Attrs = make(map[string]string)
	}
	s.Attrs[k] = v
	s.root.mu.Unlock()
}

// Timing flattens the subtree into phase durations in milliseconds, keyed
// by dotted path ("run.execute"); same-named siblings accumulate. The
// span's own duration reports as "total". This is the decomposition a
// Response carries back to nocload.
func (s *Span) Timing() map[string]float64 {
	if s == nil {
		return nil
	}
	s.root.mu.Lock()
	defer s.root.mu.Unlock()
	out := map[string]float64{"total": float64(s.DurUS) / 1000}
	var walk func(sp *Span, prefix string)
	walk = func(sp *Span, prefix string) {
		for _, c := range sp.Children {
			key := c.Name
			if prefix != "" {
				key = prefix + "." + c.Name
			}
			out[key] += float64(c.DurUS) / 1000
			walk(c, key)
		}
	}
	walk(s, "")
	return out
}

// Clone deep-copies the span tree under the tree lock, safe to serialize
// while the original keeps growing.
func (s *Span) Clone() *Span {
	if s == nil {
		return nil
	}
	s.root.mu.Lock()
	defer s.root.mu.Unlock()
	return s.cloneLocked()
}

func (s *Span) cloneLocked() *Span {
	c := &Span{Name: s.Name, StartUS: s.StartUS, DurUS: s.DurUS}
	c.root = c
	if s.Attrs != nil {
		c.Attrs = make(map[string]string, len(s.Attrs))
		for k, v := range s.Attrs {
			c.Attrs[k] = v
		}
	}
	for _, ch := range s.Children {
		cc := ch.cloneLocked()
		cc.root = c.root
		c.Children = append(c.Children, cc)
	}
	return c
}

type spanCtxKey struct{}

// ContextWithSpan threads a span through a request context.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFrom extracts the span from a context; nil when none is attached,
// which downstream instrumentation treats as "spans off".
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// SpanLog keeps the most recent completed root spans in a bounded ring —
// the backing store of a /spans endpoint.
type SpanLog struct {
	mu    sync.Mutex
	cap   int
	spans []*Span // oldest first
}

// NewSpanLog builds a log retaining up to capacity root spans (zero means
// 256).
func NewSpanLog(capacity int) *SpanLog {
	if capacity <= 0 {
		capacity = 256
	}
	return &SpanLog{cap: capacity}
}

// Add records a completed root span, evicting the oldest past capacity.
func (l *SpanLog) Add(s *Span) {
	if l == nil || s == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	if len(l.spans) > l.cap {
		l.spans = append(l.spans[:0], l.spans[len(l.spans)-l.cap:]...)
	}
	l.mu.Unlock()
}

// Snapshot returns deep clones of the retained spans, oldest first.
func (l *SpanLog) Snapshot() []*Span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	live := append([]*Span(nil), l.spans...)
	l.mu.Unlock()
	out := make([]*Span, len(live))
	for i, s := range live {
		out[i] = s.Clone()
	}
	return out
}

// WriteJSON renders {"spans":[...]} of the retained spans.
func (l *SpanLog) WriteJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(struct {
		Spans []*Span `json:"spans"`
	}{l.Snapshot()})
}
