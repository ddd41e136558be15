package obs

import (
	"bytes"
	"encoding/json"
	"testing"

	"dmap/internal/metrics"
)

// FuzzDecodeFleetSnapshot hammers the collector's trust boundary: the
// strict snapshot decoder must never panic on hostile bytes, and every
// accepted input must reach the canonical-encoding fixed point —
// decode → encode → decode → encode yields byte-identical output, and
// the re-decoded snapshot merges cleanly (the invariants the validator
// promises are exactly the ones Merge relies on).
func FuzzDecodeFleetSnapshot(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"counters":{"server.lookups":3},"gauges":{"x":1.5},"histograms":{}}`))
	f.Add([]byte(`{"counters":{},"gauges":{},"histograms":{"h":{"count":2,"sum":8,"min":3,"max":5,"edges":[4],"counts":[1,1]}}}`))
	f.Add([]byte(`{"counters":{},"gauges":{},"histograms":{"h":{"count":1,"sum":2,"min":2,"max":2,"edges":[1,2,4],"counts":[0,1,0,0],"exemplars":[0,7,0,0]}}}`))
	r := metrics.NewRegistry()
	r.Counter("c").Add(9)
	r.Histogram("h").Observe(17)
	if seed, err := r.Snapshot().JSON(); err == nil {
		f.Add(seed)
	}
	f.Add([]byte(`{"histograms":{"h":{"count":5,"sum":1,"edges":[1],"counts":[1,1]}}}`))
	f.Add([]byte(`{"unknown":true}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		enc1, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted snapshot does not encode: %v", err)
		}
		s2, err := DecodeSnapshot(enc1)
		if err != nil {
			t.Fatalf("canonical encoding rejected by own decoder: %v\n%s", err, enc1)
		}
		enc2, err := json.Marshal(s2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("canonical re-encode not a fixed point:\n%s\nvs\n%s", enc1, enc2)
		}
		// A validated snapshot must be mergeable with itself: merging
		// doubles every counter and histogram without error.
		m, err := metrics.MergeSnapshots(s2, s2)
		if err != nil {
			t.Fatalf("validated snapshot fails to merge with itself: %v", err)
		}
		for name, h := range s2.Histograms {
			if m.Histograms[name].Count != 2*h.Count {
				t.Fatalf("self-merge of %q: count %d, want %d", name, m.Histograms[name].Count, 2*h.Count)
			}
		}
	})
}
