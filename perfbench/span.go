package main

import (
	"io"
	"sort"
	"strconv"
	"sync"
	"time"

	"heteronoc/internal/obs"
)

// layers are the packages the benchmark times from outside, plus "bench"
// for the harness's own round and phase spans. Every layer reports a
// self-time metric on every workload, so a layer a workload never calls
// reads 0 there.
var layers = []string{
	"bench", "routing", "core", "noc", "traffic", "cmp", "warm", "ckpt",
	"trace", "runcache", "serve", "dse",
}

// spanRec is one recorded call into a layer: offsets from the recorder's
// origin, and the index of the enclosing span (-1 for a root).
type spanRec struct {
	name, layer string
	start, end  time.Duration
	parent      int
	track       int
}

// recorder keeps the spans of a traced round in memory. A nil recorder
// records nothing, so the untraced rounds run the same code at the cost of
// one nil check per call.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []spanRec
	tracks int
}

func newRecorder() *recorder { return &recorder{origin: time.Now(), tracks: 1} }

// scope is an open span; the zero scope (from a nil recorder) is inert.
type scope struct {
	r  *recorder
	id int
}

// root opens a top-level span on the recorder's first track.
func (r *recorder) root(layer, name string) scope {
	return r.open(-1, 0, layer, name)
}

func (r *recorder) open(parent, track int, layer, name string) scope {
	if r == nil {
		return scope{id: -1}
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, spanRec{name: name, layer: layer, start: now, end: -1, parent: parent, track: track})
	return scope{r: r, id: len(r.spans) - 1}
}

// child opens a span nested in s on the same track; the caller's goroutine
// must be the one that opened s.
func (s scope) child(layer, name string) scope {
	if s.r == nil {
		return s
	}
	s.r.mu.Lock()
	track := s.r.spans[s.id].track
	s.r.mu.Unlock()
	return s.r.open(s.id, track, layer, name)
}

// fork opens a child span on a new track, for work that runs concurrently
// with its siblings (the two serve-mixed clients).
func (s scope) fork(layer, name string) scope {
	if s.r == nil {
		return s
	}
	s.r.mu.Lock()
	track := s.r.tracks
	s.r.tracks++
	s.r.mu.Unlock()
	return s.r.open(s.id, track, layer, name)
}

func (s scope) end() {
	if s.r == nil {
		return
	}
	now := time.Since(s.r.origin)
	s.r.mu.Lock()
	s.r.spans[s.id].end = now
	s.r.mu.Unlock()
}

// call runs fn inside a child span of s and returns its duration, so the
// same line both times an operation and traces it.
func (s scope) call(layer, name string, fn func()) time.Duration {
	c := s.child(layer, name)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	c.end()
	return d
}

// selfTimes returns each layer's self time: the summed duration of its
// spans minus the part of each span its children cover. Children that run
// concurrently are merged as intervals, so overlap is not subtracted twice.
func (r *recorder) selfTimes() map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, l := range layers {
		out[l] = 0
	}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	kids := make([][]int, len(r.spans))
	for i, s := range r.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	for i, s := range r.spans {
		if s.end < 0 {
			continue
		}
		var iv [][2]time.Duration
		for _, k := range kids[i] {
			c := r.spans[k]
			if c.end < 0 {
				continue
			}
			iv = append(iv, [2]time.Duration{max(c.start, s.start), min(c.end, s.end)})
		}
		out[s.layer] += s.end - s.start - covered(iv)
	}
	return out
}

// covered returns the total length of the union of the intervals.
func covered(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE time.Duration
	open := false
	for _, v := range iv {
		if v[1] <= v[0] {
			continue
		}
		if !open || v[0] > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = v[0], v[1], true
			continue
		}
		curE = max(curE, v[1])
	}
	if open {
		total += curE - curS
	}
	return total
}

// writeChrome renders the spans as Chrome/Perfetto begin/end events, one
// thread track per concurrent client.
func (r *recorder) writeChrome(w io.Writer, process string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	type ev struct {
		e   obs.ChromeEvent
		seq int
	}
	var evs []ev
	for i, s := range r.spans {
		if s.end < 0 {
			continue
		}
		args := map[string]any{"layer": s.layer, "parent": s.parent}
		us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
		// At equal timestamps ends sort before begins, inner ends before
		// outer ones and outer begins before inner ones (by sequence), so
		// every track's begin/end pairs stay nested.
		end := us(s.end)
		if end <= us(s.start) {
			end = us(s.start) + 0.001 // an end must sort after its own begin
		}
		evs = append(evs,
			ev{obs.ChromeEvent{Name: s.name, Cat: s.layer, Ph: "B", TS: us(s.start), PID: 1, TID: s.track, Args: args}, i},
			ev{obs.ChromeEvent{Name: s.name, Cat: s.layer, Ph: "E", TS: end, PID: 1, TID: s.track}, len(r.spans) - i})
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].e.TS != evs[j].e.TS {
			return evs[i].e.TS < evs[j].e.TS
		}
		if evs[i].e.Ph != evs[j].e.Ph {
			return evs[i].e.Ph == "E"
		}
		return evs[i].seq < evs[j].seq
	})
	events := []obs.ChromeEvent{obs.ProcessName(1, process)}
	for t := 0; t < r.tracks; t++ {
		events = append(events, obs.ThreadName(1, t, "track "+strconv.Itoa(t)))
	}
	for _, e := range evs {
		events = append(events, e.e)
	}
	return obs.WriteChromeTrace(w, events)
}
