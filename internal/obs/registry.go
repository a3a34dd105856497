// Package obs is the simulator's unified observability layer: a typed
// metrics registry with Prometheus text exposition, cycle-windowed time
// series for heat-map animation, a Chrome trace-event (Perfetto) encoder,
// an opt-in HTTP introspection server and the run manifest written next to
// experiment results.
//
// The registry is pull-based: producers register closures that read
// counters they already maintain (noc router activity, runcache hit/miss),
// so registration adds zero work to simulation hot
// paths — cost is only paid when an exposition is actually rendered. The
// one push-style instrument, Counter, is for paths with no counter of
// their own to read; its Add is one atomic add.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind classifies a metric family for the exposition format.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Label is one key=value dimension of a series.
type Label struct{ Key, Value string }

// L is shorthand for building a label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// HistSnapshot is one histogram observation set: Buckets[i] counts samples
// <= Bounds[i] of the registered family (non-cumulative, raw per-bucket
// counts); samples above the last bound are counted in Overflow.
type HistSnapshot struct {
	Buckets  []uint64
	Overflow uint64
	Sum      float64
	Count    uint64
}

// series is one labeled instance of a family.
type series struct {
	labels []Label
	read   func() float64
	hist   func() HistSnapshot
}

// family groups all series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   Kind
	bounds []float64 // histogram bucket upper bounds
	series []series
}

// Registry holds metric families. The zero value is not usable; call
// NewRegistry. Registration methods panic on invalid names or duplicate
// (name, labels) series — both are programmer errors at wiring time.
type Registry struct {
	mu       sync.RWMutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// validName matches the Prometheus metric/label name grammar.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// key renders a canonical series identity for duplicate detection.
func seriesKey(labels []Label) string {
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Key + "\x00" + l.Value
	}
	return strings.Join(parts, "\x01")
}

// register adds one series, creating the family on first use.
func (r *Registry) register(name, help string, kind Kind, bounds []float64, labels []Label, read func() float64, hist func() HistSnapshot) {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l.Key) {
			panic(fmt.Sprintf("obs: metric %s has invalid label key %q", name, l.Key))
		}
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, bounds: bounds}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s re-registered as %s, was %s", name, kind, f.kind))
	}
	id := seriesKey(sorted)
	for _, s := range f.series {
		if seriesKey(s.labels) == id {
			panic(fmt.Sprintf("obs: duplicate series %s{%s}", name, id))
		}
	}
	f.series = append(f.series, series{labels: sorted, read: read, hist: hist})
}

// RegisterCounter registers a monotonically non-decreasing value read by fn
// at exposition time.
func (r *Registry) RegisterCounter(name, help string, labels []Label, fn func() float64) {
	r.register(name, help, KindCounter, nil, labels, fn, nil)
}

// RegisterGauge registers a point-in-time value read by fn at exposition
// time.
func (r *Registry) RegisterGauge(name, help string, labels []Label, fn func() float64) {
	r.register(name, help, KindGauge, nil, labels, fn, nil)
}

// RegisterHistogram registers a histogram family with the given bucket
// upper bounds (ascending). fn returns the raw per-bucket counts at
// exposition time; the exposition renders the cumulative Prometheus form
// with a terminal +Inf bucket.
func (r *Registry) RegisterHistogram(name, help string, labels []Label, bounds []float64, fn func() HistSnapshot) {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("obs: histogram %s has no buckets", name))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %s bounds not ascending", name))
		}
	}
	r.register(name, help, KindHistogram, bounds, labels, nil, fn)
}

// Counter is a push-style monotonic counter for paths without an existing
// counter to scrape.
type Counter struct {
	v atomic.Int64
}

// NewCounter creates and registers a push-style counter.
func (r *Registry) NewCounter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.RegisterCounter(name, help, labels, func() float64 { return float64(c.v.Load()) })
	return c
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// renderLabels renders {k="v",...} (empty string for no labels), with extra
// appended after the series labels.
func renderLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	parts := make([]string, len(all))
	for i, l := range all {
		parts[i] = fmt.Sprintf("%s=%q", l.Key, escapeLabel(l.Value))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// formatValue renders a sample value in the exposition format.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv(v)
}

// strconv formats without the exponent forms %g would pick for integers.
func strconv(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4). Families appear in registration order; series in
// their registration order within a family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	fams := append([]*family(nil), r.families...)
	r.mu.RUnlock()
	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind); err != nil {
			return err
		}
		for _, s := range f.series {
			if f.kind == KindHistogram {
				if err := writeHistogram(w, f, s); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, renderLabels(s.labels), formatValue(s.read())); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeHistogram(w io.Writer, f *family, s series) error {
	snap := s.hist()
	var cum uint64
	for i, bound := range f.bounds {
		if i < len(snap.Buckets) {
			cum += snap.Buckets[i]
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
			renderLabels(s.labels, L("le", formatValue(bound))), cum); err != nil {
			return err
		}
	}
	cum += snap.Overflow
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
		renderLabels(s.labels, L("le", "+Inf")), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, renderLabels(s.labels), formatValue(snap.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, renderLabels(s.labels), snap.Count)
	return err
}

// Exposition renders the registry to a byte slice.
func (r *Registry) Exposition() []byte {
	var b strings.Builder
	_ = r.WritePrometheus(&b) // strings.Builder cannot fail
	return []byte(b.String())
}
