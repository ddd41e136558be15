// HTTP surface of the fleet plane: /fleet (latest view, text table or
// JSON) and /fleet/flight (flight-recorder dumps). Both set explicit
// Content-Type headers — scrapers and humans must never have to sniff.
package obs

import (
	"net/http"

	"dmap/internal/metrics"
)

// FleetHandler serves the latest fleet view from latest(): a text table
// by default, JSON when metrics.WantsJSON.
// latest returning false means no round has completed yet (503).
func FleetHandler(latest func() (FleetView, bool)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		view, ok := latest()
		if !ok {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			http.Error(w, "no fleet view collected yet", http.StatusServiceUnavailable)
			return
		}
		if metrics.WantsJSON(r) {
			b, err := view.JSON()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Write(b)
			w.Write([]byte("\n"))
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = view.WriteTable(w)
	})
}

// FlightHandler serves the recorder's dumps as JSON.
func FlightHandler(rec *FlightRecorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, err := rec.JSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(b)
		w.Write([]byte("\n"))
	})
}
