// HTTP exposure: the /debug/metrics endpoint served by cmd/dmapnode.
package metrics

import (
	"net/http"
	"strings"
)

// WantsJSON is the one negotiation rule of the debug and fleet
// endpoints: JSON for ?format=json or an Accept header that names
// application/json among its media ranges, text otherwise.
func WantsJSON(r *http.Request) bool {
	if r.URL.Query().Get("format") == "json" {
		return true
	}
	for _, accept := range r.Header.Values("Accept") {
		for _, media := range strings.Split(accept, ",") {
			media, _, _ = strings.Cut(media, ";")
			if strings.EqualFold(strings.TrimSpace(media), "application/json") {
				return true
			}
		}
	}
	return false
}

// Handler serves reg's snapshot: the text encoding by default, JSON
// when WantsJSON.
func Handler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		snap := reg.Snapshot()
		if WantsJSON(r) {
			b, err := snap.JSON()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Write(b)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = snap.WriteText(w)
	})
}
