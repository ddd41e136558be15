// Debug HTTP handlers: /debug/traces (completed span trees + slow-op
// log) and /debug/hotkeys (Space-Saving top-K per op class). Both
// default to a human-readable text rendering and switch to JSON by
// /debug/metrics's rule, metrics.WantsJSON.
package trace

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"dmap/internal/metrics"
)

// TracesHandler serves the tracer's retained traces and slow ops.
// Query parameters: format=json for machine output (or an Accept that
// names application/json), n=<count> to limit to the most recent n
// traces.
func TracesHandler(t *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		traces := t.Traces()
		slow := t.SlowOps()
		if n, err := strconv.Atoi(r.URL.Query().Get("n")); err == nil && n >= 0 && n < len(traces) {
			traces = traces[len(traces)-n:]
		}
		if metrics.WantsJSON(r) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(struct {
				Stats   Stats        `json:"stats"`
				Traces  []*TraceView `json:"traces"`
				SlowOps []*SlowOp    `json:"slow_ops"`
			}{t.Stats(), traces, slow})
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		st := t.Stats()
		fmt.Fprintf(w, "# tracer: ops=%d sampled=%d slow=%d\n", st.Ops, st.Sampled, st.SlowOps)
		fmt.Fprintf(w, "# traces retained: %d\n\n", len(traces))
		for _, v := range traces {
			fmt.Fprintf(w, "%s\n", v.Tree(true))
		}
		fmt.Fprintf(w, "# slow ops retained: %d\n", len(slow))
		for _, so := range slow {
			fmt.Fprintf(w, "%s op=%s", so.Time.UTC().Format("15:04:05.000"), so.Op)
			if so.GUID != "" {
				fmt.Fprintf(w, " guid=%s", so.GUID)
			}
			fmt.Fprintf(w, " dur=%dµs trace=%016x sampled=%v", so.DurUs, uint64(so.Trace), so.Sampled)
			if so.Err != "" {
				fmt.Fprintf(w, " err=%q", so.Err)
			}
			fmt.Fprintln(w)
		}
	})
}

// hotKeysJSON is the /debug/hotkeys JSON document.
type hotKeysJSON struct {
	Lookups hotClassJSON `json:"lookups"`
	Inserts hotClassJSON `json:"inserts"`
}

type hotClassJSON struct {
	Total uint64       `json:"total"`
	Top   []hotKeyJSON `json:"top"`
}

type hotKeyJSON struct {
	GUID  string `json:"guid"`
	Count uint64 `json:"count"`
	// Err is the Space-Saving overestimation bound: true frequency is in
	// [count-err, count].
	Err uint64 `json:"err"`
}

func hotClass(s *SpaceSaving, n int) hotClassJSON {
	if s == nil {
		return hotClassJSON{Top: []hotKeyJSON{}}
	}
	top := s.Top(n)
	out := hotClassJSON{Total: s.Total(), Top: make([]hotKeyJSON, 0, len(top))}
	for _, k := range top {
		out.Top = append(out.Top, hotKeyJSON{GUID: k.GUID.String(), Count: k.Count, Err: k.Err})
	}
	return out
}

// HotKeysHandler serves the node's hot-GUID trackers. Query
// parameters: format=json (or an Accept that names application/json),
// n=<count> to limit each class (default 20).
func HotKeysHandler(h *HotKeys) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := 20
		if v, err := strconv.Atoi(r.URL.Query().Get("n")); err == nil && v > 0 {
			n = v
		}
		var lookups, inserts *SpaceSaving
		if h != nil {
			lookups, inserts = h.lookups, h.inserts
		}
		doc := hotKeysJSON{Lookups: hotClass(lookups, n), Inserts: hotClass(inserts, n)}
		if metrics.WantsJSON(r) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(doc)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		writeHotClass(w, "lookups", doc.Lookups)
		writeHotClass(w, "inserts", doc.Inserts)
	})
}

func writeHotClass(w http.ResponseWriter, name string, c hotClassJSON) {
	fmt.Fprintf(w, "# %s: total=%d monitored=%d\n", name, c.Total, len(c.Top))
	for i, k := range c.Top {
		fmt.Fprintf(w, "%3d. %s count=%d err=%d\n", i+1, k.GUID, k.Count, k.Err)
	}
	fmt.Fprintln(w)
}
