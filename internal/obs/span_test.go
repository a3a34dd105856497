package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

func TestSpanTreeAndTiming(t *testing.T) {
	root := NewSpan("request")
	q := root.Child("queue")
	q.End()
	run := root.Child("run")
	run.SetAttr("layout", "Diagonal+BL")
	ck := run.Child("cache.disk")
	ck.End()
	ex := run.Child("execute")
	ex.End()
	run.End()
	root.End()

	timing := root.Timing()
	for _, key := range []string{"total", "queue", "run", "run.cache.disk", "run.execute"} {
		if _, ok := timing[key]; !ok {
			t.Errorf("timing missing %q: %v", key, timing)
		}
	}
	if len(root.Children) != 2 || len(run.Children) != 2 {
		t.Fatalf("tree shape wrong: %d/%d children", len(root.Children), len(run.Children))
	}
	if run.Attrs["layout"] != "Diagonal+BL" {
		t.Errorf("attr lost: %v", run.Attrs)
	}

	c := root.Clone()
	if c == root || c.Children[1] == run {
		t.Fatal("clone aliases original")
	}
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"cache.disk"`) {
		t.Errorf("serialized span missing child: %s", data)
	}
}

func TestSpanNilSafety(t *testing.T) {
	var s *Span
	c := s.Child("x") // all no-ops; must not panic
	c.SetAttr("k", "v")
	c.End()
	if c != nil {
		t.Fatal("nil span produced a child")
	}
	if got := s.Timing(); got != nil {
		t.Fatalf("nil span timing = %v", got)
	}
	ctx := ContextWithSpan(context.Background(), nil)
	if SpanFrom(ctx) != nil {
		t.Fatal("nil span attached to context")
	}
}

func TestSpanContext(t *testing.T) {
	root := NewSpan("request")
	ctx := ContextWithSpan(context.Background(), root)
	got := SpanFrom(ctx)
	if got != root {
		t.Fatalf("SpanFrom = %v, want root", got)
	}
	if SpanFrom(context.Background()) != nil {
		t.Fatal("empty context returned a span")
	}
}

func TestSpanLogBoundedAndJSON(t *testing.T) {
	l := NewSpanLog(2)
	for _, name := range []string{"a", "b", "c"} {
		s := NewSpan(name)
		s.End()
		l.Add(s)
	}
	snap := l.Snapshot()
	if len(snap) != 2 || snap[0].Name != "b" || snap[1].Name != "c" {
		t.Fatalf("log kept %v", snap)
	}
	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []*Span `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Spans) != 2 {
		t.Fatalf("JSON carries %d spans, want 2", len(doc.Spans))
	}
}

func TestTimeSeriesWindowEdgeDeterministic(t *testing.T) {
	ts := NewTimeSeries("v")
	ts.Append(100, []float64{1})
	ts.Append(200, []float64{2})
	// A sample landing exactly on the last window edge replaces that row —
	// one row per window, deterministically — instead of duplicating the
	// edge cycle.
	ts.Append(200, []float64{3})
	if ts.Len() != 2 {
		t.Fatalf("len = %d, want 2", ts.Len())
	}
	if ts.Rows[1][0] != 3 {
		t.Fatalf("edge sample not replaced: %v", ts.Rows)
	}
	if len(ts.Cycles) != 2 || ts.Cycles[0] != 100 || ts.Cycles[1] != 200 {
		t.Fatalf("cycles = %v, want [100 200]", ts.Cycles)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("decreasing cycle did not panic")
		}
	}()
	ts.Append(150, []float64{4})
}

func TestManifestCanonicalExcludesSpans(t *testing.T) {
	m := Manifest{Tool: "experiments", ConfigHash: "abc", RuncacheHits: 3}
	base := m.Canonical()
	s := NewSpan("run")
	s.Child("fig8").End()
	s.End()
	m.Spans = []*Span{s}
	m.WallTimeSec = 12.5
	withSpans := m.Canonical()
	if !bytes.Equal(base, withSpans) {
		t.Fatalf("spans leaked into canonical form:\n%s\nvs\n%s", base, withSpans)
	}
	if m.Hash() != (&Manifest{Tool: "experiments", ConfigHash: "abc", RuncacheHits: 3}).Hash() {
		t.Fatal("span-carrying manifest hash diverged")
	}
	// The full (non-canonical) file form still carries the spans.
	full, err := json.Marshal(&m)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(full), `"spans"`) {
		t.Errorf("full manifest dropped spans: %s", full)
	}
}
