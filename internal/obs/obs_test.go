package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestTimeSeriesRoundTrip(t *testing.T) {
	ts := NewTimeSeries("inflight", "util_r0")
	ts.Append(1000, []float64{3, 0.5})
	ts.Append(2000, []float64{7, 0.25})
	var buf bytes.Buffer
	if err := ts.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got timeSeriesJSON
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 2 || len(got.Cycles) != 2 || got.Columns[1] != "util_r0" || got.Rows[1][0] != 7 || got.Cycles[0] != 1000 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestTimeSeriesCSV(t *testing.T) {
	ts := NewTimeSeries("a", "b")
	ts.Append(10, []float64{1, 2.5})
	var buf bytes.Buffer
	if err := ts.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "cycle,a,b\n10,1,2.5\n"
	if buf.String() != want {
		t.Fatalf("csv = %q, want %q", buf.String(), want)
	}
}

func TestTimeSeriesAppendChecksWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on bad row width")
		}
	}()
	NewTimeSeries("a").Append(0, []float64{1, 2})
}

func TestChromeTraceWriteAndValidate(t *testing.T) {
	events := []ChromeEvent{
		ProcessName(0, "router 0"),
		ThreadName(0, 1, "port 1"),
		{Name: "inject", Ph: "i", TS: 5, PID: 0, TID: 1, S: "t", Args: map[string]any{"packet": 1}},
		{Name: "inflight", Ph: "C", TS: 5, PID: 0, Args: map[string]any{"flits": 4}},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("validated %d events, want 4", n)
	}
	// Top-level shape Perfetto expects.
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["traceEvents"].([]any); !ok {
		t.Fatal("no traceEvents array")
	}
}

func TestValidateChromeTraceRejectsGarbage(t *testing.T) {
	for name, doc := range map[string]string{
		"not json":     "]][[",
		"no events":    `{"foo": 1}`,
		"missing name": `{"traceEvents":[{"ph":"i","ts":1}]}`,
		"bad phase":    `{"traceEvents":[{"name":"x","ph":"zz","ts":1}]}`,
		"negative ts":  `{"traceEvents":[{"name":"x","ph":"i","ts":-5}]}`,
	} {
		if _, err := ValidateChromeTrace(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestManifestDeterministicModuloWallTime(t *testing.T) {
	build := func(wall float64) *Manifest {
		return &Manifest{
			Tool:         "experiments",
			ConfigHash:   "abc123",
			Scale:        "quick",
			Experiments:  []string{"fig1", "fig7"},
			Seeds:        []int64{42, 1},
			Fingerprints: map[string]string{"fig1": "a", "fig7": "b"},
			RuncacheHits: 3, RuncacheMisses: 9,
			WallTimeSec: wall,
		}
	}
	a, b := build(1.5), build(99.9)
	if !bytes.Equal(a.Canonical(), b.Canonical()) {
		t.Fatalf("canonical forms differ:\n%s\nvs\n%s", a.Canonical(), b.Canonical())
	}
	if a.Hash() != b.Hash() {
		t.Fatal("hashes differ")
	}
	c := build(1.5)
	c.Fingerprints["fig7"] = "CHANGED"
	if bytes.Equal(a.Canonical(), c.Canonical()) {
		t.Fatal("changed fingerprint not reflected in canonical form")
	}
}

func TestManifestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.manifest.json")
	m := &Manifest{Tool: "noxsim", ConfigHash: "ff", Layout: "Diagonal+BL", WallTimeSec: 2}
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tool != "noxsim" || got.Layout != "Diagonal+BL" || got.WallTimeSec != 2 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.RegisterGauge("answer", "", nil, func() float64 { return 42 })
	ts := NewTimeSeries("x")
	ts.Append(100, []float64{1})
	var sn Snapshot
	sn.Update(100, reg, ts)
	srv, err := StartServer("127.0.0.1:0", ServerConfig{
		Metrics:    sn.Metrics,
		TimeSeries: sn.TimeSeries,
		Progress:   sn.Cycle,
		StallDump:  func() string { return "router 3 wedged" },
		StallAfter: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "answer 42") {
		t.Fatalf("/metrics: %d %q", code, body)
	}
	if code, body := get("/timeseries"); code != 200 || !strings.Contains(body, `"cycles":[100]`) {
		t.Fatalf("/timeseries: %d %q", code, body)
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("/healthz: %d %q", code, body)
	}
	// Progress frozen at 100: the watchdog must flip to stalled and attach
	// the dump.
	deadline := time.Now().Add(2 * time.Second)
	for {
		code, body := get("/healthz")
		if code == http.StatusServiceUnavailable {
			if !strings.Contains(body, "router 3 wedged") {
				t.Fatalf("stalled response missing dump: %q", body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("watchdog never reported stalled")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Progress resumes: healthz recovers.
	sn.Update(200, reg, ts)
	if code, _ := get("/healthz"); code != 200 {
		t.Fatalf("healthz did not recover after progress: %d", code)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("pprof endpoint: %d", code)
	}
}
