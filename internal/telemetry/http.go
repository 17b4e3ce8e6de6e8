package telemetry

import (
	"encoding/json"
	"net/http"
	"strconv"
)

// traceSummary is the /traces listing entry.
type traceSummary struct {
	QID     QueryID `json:"qid"`
	Partial bool    `json:"partial"`
	Spans   int     `json:"spans"`
	Matches int     `json:"matches"`
	Nodes   int     `json:"nodes"`
}

// NewHandler serves a registry and trace store over HTTP:
//
//	GET /metrics        Prometheus text exposition
//	GET /traces         JSON array of trace summaries (oldest first)
//	GET /trace?id=<qid> full JSON dump of one trace
//
// traces may be nil, in which case the trace routes answer 404.
func NewHandler(reg *Registry, traces *TraceStore) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, req *http.Request) {
		if traces == nil {
			http.Error(w, "tracing disabled", http.StatusNotFound)
			return
		}
		var out []traceSummary
		for _, qid := range traces.IDs() {
			t, ok := traces.Get(qid)
			if !ok {
				continue
			}
			out = append(out, traceSummary{
				QID:     t.QID,
				Partial: t.Partial,
				Spans:   len(t.Spans),
				Matches: t.Matches(),
				Nodes:   len(t.Nodes()),
			})
		}
		writeJSON(w, out)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, req *http.Request) {
		if traces == nil {
			http.Error(w, "tracing disabled", http.StatusNotFound)
			return
		}
		qid, err := strconv.ParseUint(req.URL.Query().Get("id"), 10, 64)
		if err != nil {
			http.Error(w, "bad or missing id parameter", http.StatusBadRequest)
			return
		}
		t, ok := traces.Get(QueryID(qid))
		if !ok {
			http.Error(w, "no trace for that query id", http.StatusNotFound)
			return
		}
		writeJSON(w, t)
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
