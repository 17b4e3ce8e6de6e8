package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one recorded interval. The harness records spans from outside the
// program: around the client's live calls, and around direct calls into one
// layer at a time replayed with a sampled query's own inputs. A layer's self
// time is its span minus the spans naming it as parent.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root span
	Query  int    `json:"query"`  // the client operation this span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced pass began; virtual for DES client spans
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// qi[id-1] is the pool query of client.query span id; -1 for other spans.
	qi []int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.t0)) }

// add records a span and returns its id.
func (r *recorder) add(parent, query int, name string, start, end int64, qi int) int {
	r.mu.Lock()
	id := len(r.spans) + 1
	if query == 0 {
		query = id
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Query: query, Name: name, Start: start, End: end})
	r.qi = append(r.qi, qi)
	r.mu.Unlock()
	return id
}

// timed runs fn and records it as a child of parent.
func (r *recorder) timed(parent, query int, name string, fn func()) (int, time.Duration) {
	start := time.Now()
	fn()
	end := time.Now()
	return r.add(parent, query, name, r.since(start), r.since(end), -1), end.Sub(start)
}

// clientOp records a live client call and, when it saw a match, the first
// one.
func (r *recorder) clientOp(qi int, start, end, first int64) {
	id := r.add(0, 0, "client.query", start, end, qi)
	if first > 0 {
		r.add(id, id, "client.first_match", start, start+first, -1)
	}
}

// sampleQueries returns up to n client.query span ids, evenly spaced.
func (r *recorder) sampleQueries(n int) []int {
	var ids []int
	for i, s := range r.spans {
		if s.Name == "client.query" && r.qi[i] >= 0 {
			ids = append(ids, s.ID)
		}
	}
	if len(ids) <= n {
		return ids
	}
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, ids[i*len(ids)/n])
	}
	return out
}

// selfTimes returns, per span name, the self time of every span of that
// name: its duration minus its children's.
func (r *recorder) selfTimes() map[string][]time.Duration {
	child := make([]int64, len(r.spans)+1)
	for _, s := range r.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string][]time.Duration)
	for _, s := range r.spans {
		self := s.End - s.Start - child[s.ID]
		if self < 0 {
			self = 0
		}
		out[s.Name] = append(out[s.Name], time.Duration(self))
	}
	return out
}

// traceDir is where span files go, relative to the checkout root the
// benchmark runs from. The smoke test points it at a temporary directory.
var traceDir = "bench/out"

func (r *recorder) write(workload string, seed int64) (string, error) {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(traceDir, workload+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, r.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	return path, nil
}
