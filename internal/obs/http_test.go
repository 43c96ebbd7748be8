package obs

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func introspectionFixture() (*Registry, *Tracer) {
	reg := NewRegistry()
	reg.Counter("served_total", L("alg", "LOSS")).Add(3)
	reg.Gauge("clock_seconds").Set(12.5)
	reg.Histogram("sojourn_seconds").Observe(1.25)
	tr := NewTracer(16)
	h := tr.StartTrace()
	root := h.Start("run", nil, 0)
	h.Start("locate", root, 1).End(2)
	root.End(3)
	return reg, tr
}

func TestIntrospectionEndpoints(t *testing.T) {
	reg, tr := introspectionFixture()
	srv := httptest.NewServer(NewMux(MuxConfig{Reg: reg, Tracer: tr}))
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	metrics := get("/metrics")
	for _, want := range []string{
		"# TYPE served_total counter",
		`served_total{alg="LOSS"} 3`,
		"sojourn_seconds_bucket",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	statusz := get("/statusz")
	var parsed map[string]any
	if err := json.Unmarshal([]byte(statusz), &parsed); err != nil {
		t.Fatalf("/statusz is not valid JSON: %v\n%s", err, statusz)
	}
	spans, ok := parsed["spans"].(map[string]any)
	if !ok || spans["total"] != 2.0 {
		t.Fatalf("/statusz spans block = %v", parsed["spans"])
	}
	if _, ok := parsed["metrics"].(map[string]any); !ok {
		t.Fatalf("/statusz metrics block missing:\n%s", statusz)
	}

	tracez := get("/tracez")
	if !strings.Contains(tracez, "# spans: 2 kept, 2 recorded, 0 dropped") ||
		!strings.Contains(tracez, "locate") {
		t.Fatalf("/tracez malformed:\n%s", tracez)
	}

	if pprofIdx := get("/debug/pprof/"); !strings.Contains(pprofIdx, "goroutine") {
		t.Fatal("/debug/pprof/ not mounted")
	}
}

func TestIntrospectionToleratesNils(t *testing.T) {
	srv := httptest.NewServer(NewMux(MuxConfig{}))
	defer srv.Close()
	for _, path := range []string{"/metrics", "/statusz", "/tracez", "/healthz"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s with nil state: %s", path, resp.Status)
		}
		if path == "/statusz" {
			var parsed map[string]any
			if err := json.Unmarshal(body, &parsed); err != nil {
				t.Fatalf("nil /statusz invalid JSON: %v\n%s", err, body)
			}
		}
	}
}

// TestServeReplayBindFailure pins ServeReplay's one return: an
// address it cannot bind (here, one already taken) is an error, not a
// block.
func TestServeReplayBindFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot bind a local listener: %v", err)
	}
	defer ln.Close()
	cells := [][]Span{{{Name: "run"}}}
	if err := ServeReplay(ln.Addr().String(), NewRegistry(), cells, func(c []Span) []Span { return c }); err == nil {
		t.Fatal("ServeReplay on a taken address returned nil")
	}
}

func TestServeBindsAndServes(t *testing.T) {
	reg, tr := introspectionFixture()
	addr, err := Serve("127.0.0.1:0", MuxConfig{Reg: reg, Tracer: tr})
	if err != nil {
		t.Skipf("cannot bind a local listener: %v", err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics via Serve: %s", resp.Status)
	}
}

// TestWriteShardsJSON pins the per-shard view: shard-labeled counters
// and gauges group under their shard (ordered numerically), lose only
// the shard label, keep escaped values, and unsharded series and
// histograms stay out.
func TestWriteShardsJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("served_total", L("shard", "10"), L("q", `a"b\c`)).Add(4)
	reg.Counter("served_total", L("shard", "2")).Add(3)
	reg.Gauge("makespan_seconds", L("rate", "90"), L("shard", "2")).Set(1.5)
	reg.Counter("fleet_offered_total").Add(7)
	reg.Histogram("latency_seconds", L("shard", "2")).Observe(1)
	var sb strings.Builder
	if err := reg.WriteShardsJSON(&sb); err != nil {
		t.Fatal(err)
	}
	want := `{
  "2": {
    "makespan_seconds{rate=\"90\"}": 1.5,
    "served_total": 3},
  "10": {
    "served_total{q=\"a\\\"b\\\\c\"}": 4}}
`
	if got := sb.String(); got != want {
		t.Fatalf("WriteShardsJSON =\n%s\nwant\n%s", got, want)
	}
}
