package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"dmap/internal/metrics"
)

func registryJSON(t *testing.T) []byte {
	t.Helper()
	r := metrics.NewRegistry()
	r.Counter("server.lookups").Add(41)
	r.Gauge("server.inflight").Set(2)
	h := r.Histogram("server.op.lookup_us")
	h.Observe(3)
	h.Observe(1 << 30) // overflow bucket
	b, err := r.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestDecodeSnapshotAcceptsRegistryOutput(t *testing.T) {
	s, err := DecodeSnapshot(registryJSON(t))
	if err != nil {
		t.Fatalf("decode of genuine registry JSON failed: %v", err)
	}
	if s.Counters["server.lookups"] != 41 {
		t.Errorf("counter = %d, want 41", s.Counters["server.lookups"])
	}
	if s.Histograms["server.op.lookup_us"].Count != 2 {
		t.Errorf("histogram count = %d, want 2", s.Histograms["server.op.lookup_us"].Count)
	}
}

func TestDecodeSnapshotRejects(t *testing.T) {
	cases := map[string]string{
		"unknown field":   `{"counters":{},"gauges":{},"histograms":{},"extra":1}`,
		"trailing data":   `{"counters":{},"gauges":{},"histograms":{}} {"x":1}`,
		"count mismatch":  `{"counters":{},"gauges":{},"histograms":{"h":{"count":5,"sum":1,"min":1,"max":1,"edges":[1],"counts":[1,1]}}}`,
		"short counts":    `{"counters":{},"gauges":{},"histograms":{"h":{"count":1,"sum":1,"min":1,"max":1,"edges":[1,2],"counts":[1,0]}}}`,
		"unsorted edges":  `{"counters":{},"gauges":{},"histograms":{"h":{"count":1,"sum":1,"min":1,"max":1,"edges":[2,1,3],"counts":[0,1,0,0]}}}`,
		"min above max":   `{"counters":{},"gauges":{},"histograms":{"h":{"count":1,"sum":1,"min":9,"max":1,"edges":[1],"counts":[1,0]}}}`,
		"edgeless counts": `{"counters":{},"gauges":{},"histograms":{"h":{"count":1,"sum":1,"min":1,"max":1,"edges":[],"counts":[1]}}}`,
		"bad exemplars":   `{"counters":{},"gauges":{},"histograms":{"h":{"count":1,"sum":1,"min":1,"max":1,"edges":[1],"counts":[1,0],"exemplars":[7]}}}`,
		"not json":        `counter server.lookups 3`,
	}
	for name, body := range cases {
		if _, err := DecodeSnapshot([]byte(body)); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
}

func TestEncodeSnapshotCanonical(t *testing.T) {
	s, err := DecodeSnapshot(registryJSON(t))
	if err != nil {
		t.Fatal(err)
	}
	enc1, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := DecodeSnapshot(enc1)
	if err != nil {
		t.Fatalf("canonical encoding does not decode: %v", err)
	}
	enc2, err := json.Marshal(s2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc1, enc2) {
		t.Errorf("canonical re-encode not a fixed point:\n%s\nvs\n%s", enc1, enc2)
	}
}

func TestWriteTable(t *testing.T) {
	v := FleetView{
		When:    time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC),
		NodesUp: 1,
		Nodes: []NodeView{
			{Name: "as0", Up: true, WindowS: 1,
				Rates:  map[string]float64{"server.lookups": 120.5},
				Gauges: map[string]float64{"server.inflight": 3},
				P99:    map[string]float64{"server.op.lookup_us": 250}},
			{Name: "as1", Up: false, Err: "connection refused"},
		},
		Outliers: []Outlier{{Node: "as0", Metric: "rate:server.sheds_global", Value: 50, Median: 2, Factor: 25}},
	}
	var sb strings.Builder
	if err := v.WriteTable(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"nodes up 1/2", "as0", "120.5", "NO", "connection refused", "outlier: as0"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}
