package squid_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"squid/internal/keyspace"
	"squid/internal/sim"
	"squid/internal/squid"
	"squid/internal/telemetry"
)

// tracedConfig is chaosConfig with query tracing on and without replicas
// or invariant checks.
func tracedConfig(t testing.TB, nodes int, seed int64) sim.Config {
	t.Helper()
	cfg := chaosConfig(t, nodes, seed)
	cfg.Engine.Replicas = 0
	cfg.CheckInvariants = false
	cfg.Trace = true
	return cfg
}

// assertTraceCoversOwners checks the headline tracing guarantee: the
// owner of every returned match recorded a span in the reassembled tree.
func assertTraceCoversOwners(t *testing.T, label string, nw *sim.Network, tr telemetry.Trace, matches []squid.Element) {
	t.Helper()
	nodes := tr.Nodes()
	for _, m := range matches {
		idx, err := nw.Space.Index(m.Values)
		if err != nil {
			t.Fatalf("%s: index %v: %v", label, m.Values, err)
		}
		owner := nw.SuccessorOf(idx)
		if !nodes[uint64(owner.ID())] {
			t.Fatalf("%s: owner %x of match %q (key %x) missing from trace nodes %v",
				label, uint64(owner.ID()), m.Data, idx, nodes)
		}
	}
}

// TestTraceCompleteness runs flexible and exact queries on a healthy
// traced network and checks the reassembled tree: one root span, every
// match attributed, and every owner of a returned key visited.
func TestTraceCompleteness(t *testing.T) {
	nw := onGoroutines(t, tracedConfig(t, 16, 7001))
	rng := rand.New(rand.NewSource(7002))
	elems := chaosPublish(t, nw, rng, 200)

	for _, qs := range []string{"(a*, *)", "(*, m*)", "(b-f, *)", "(*, *)"} {
		q := keyspace.MustParse(qs)
		res, _ := nw.Query(rng.Intn(len(nw.Peers)), q)
		if res.Err != nil {
			t.Fatalf("%s: %v", qs, res.Err)
		}
		tr, ok := nw.Traces.Get(res.QID)
		if !ok {
			t.Fatalf("%s: no trace recorded", qs)
		}
		if tr.Partial {
			t.Fatalf("%s: healthy network produced a partial trace", qs)
		}
		if root := tr.Root(); root == nil {
			t.Fatalf("%s: trace has no root span", qs)
		}
		if got := tr.Matches(); got != len(res.Matches) {
			t.Fatalf("%s: trace attributes %d matches, result has %d", qs, got, len(res.Matches))
		}
		if len(tr.Lost()) != 0 {
			t.Fatalf("%s: healthy network recorded lost spans", qs)
		}
		assertTraceCoversOwners(t, qs, nw, tr, res.Matches)
	}

	// The exact-point path (one full-resolution cell routed to its owner)
	// must trace too.
	e := elems[rng.Intn(len(elems))]
	q := keyspace.MustParse(fmt.Sprintf("(%s, %s)", e.Values[0], e.Values[1]))
	res, _ := nw.Query(0, q)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	tr, ok := nw.Traces.Get(res.QID)
	if !ok {
		t.Fatal("exact query: no trace recorded")
	}
	found := false
	for _, s := range tr.Spans {
		if s.Kind == "cluster" && s.Level == nw.Space.Curve().Bits() && s.Clusters == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("exact query trace has no span of its one cell: %+v", tr.Spans)
	}
	assertTraceCoversOwners(t, "exact", nw, tr, res.Matches)
}

// TestChaosTraceCoverage is the tracing chaos soak: under sustained
// message drops, every query that claims completeness has a trace
// covering the owners of all returned keys, and every partial result's
// trace is marked partial with the abandoned subtrees recorded as lost
// spans. Drops only — crashes change key ownership via replica promotion,
// which would make the owner oracle unsound.
func TestChaosTraceCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("trace chaos soak skipped in short mode")
	}
	cfg := tracedConfig(t, 16, 8001)
	seeds := seedsOf(cfg)
	nw := onEventCore(t, cfg).Network
	rng := rand.New(rand.NewSource(8002))
	chaosPublish(t, nw, rng, 250)

	queries := []keyspace.Query{
		keyspace.MustParse("(a*, *)"),
		keyspace.MustParse("(*, m*)"),
		keyspace.MustParse("(b-f, *)"),
		keyspace.MustParse("(*, *)"),
	}

	nw.Faults.SetDropRate(0.15)
	complete, partial := 0, 0
	for i := 0; i < 60; i++ {
		q := queries[rng.Intn(len(queries))]
		truth := nw.BruteForceMatches(q)
		res, _ := nw.Query(rng.Intn(len(nw.Peers)), q)
		label := fmt.Sprintf("%s: query %d %s", seeds, i, q)
		checkAnswer(t, label, res, truth)

		tr, ok := nw.Traces.Get(res.QID)
		if !ok {
			t.Fatalf("%s: no trace recorded", label)
		}
		if res.Err == nil {
			complete++
			if tr.Partial {
				t.Fatalf("%s: complete result but partial trace", label)
			}
			assertTraceCoversOwners(t, label, nw, tr, res.Matches)
		} else {
			partial++
			if !tr.Partial {
				t.Fatalf("%s: partial result (%v) but trace not marked partial", label, res.Err)
			}
			if len(tr.Lost()) == 0 {
				t.Fatalf("%s: partial trace records no lost spans", label)
			}
		}
	}
	if complete == 0 {
		t.Errorf("%s: no complete queries under drops — recovery never succeeded", seeds)
	}
	if partial == 0 {
		t.Errorf("%s: no partial queries under drops — faults were not exercised", seeds)
	}
	t.Logf("trace chaos: %d complete / %d partial; faults %+v", complete, partial, nw.Faults.Stats())
}

// TestTelemetryHTTPEndToEnd serves a live network's registry and trace
// store over HTTP — exactly what squid-node -http exposes and squidctl
// consumes — and checks both endpoints return the query that just ran.
func TestTelemetryHTTPEndToEnd(t *testing.T) {
	nw := onGoroutines(t, tracedConfig(t, 8, 9001))
	rng := rand.New(rand.NewSource(9002))
	chaosPublish(t, nw, rng, 100)
	res, _ := nw.Query(0, keyspace.MustParse("(*, *)"))
	if res.Err != nil {
		t.Fatal(res.Err)
	}

	srv := httptest.NewServer(telemetry.NewHandler(nw.Telemetry, nw.Traces))
	defer srv.Close()

	body := httpGet(t, srv.URL+"/metrics")
	for _, want := range []string{
		"squid_engine_queries_total",
		"squid_chord_lookup_hops",
		"squid_transport_inproc_sent_total",
		"squid_store_keys_held",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}

	var list []struct {
		QID uint64 `json:"qid"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, srv.URL+"/traces")), &list); err != nil {
		t.Fatalf("decode /traces: %v", err)
	}
	found := false
	for _, e := range list {
		if e.QID == uint64(res.QID) {
			found = true
		}
	}
	if !found {
		t.Fatalf("/traces does not list query %d: %+v", res.QID, list)
	}

	var tr telemetry.Trace
	if err := json.Unmarshal([]byte(httpGet(t, fmt.Sprintf("%s/trace?id=%d", srv.URL, res.QID))), &tr); err != nil {
		t.Fatalf("decode /trace: %v", err)
	}
	if tr.QID != res.QID || len(tr.Spans) == 0 {
		t.Fatalf("/trace returned %+v", tr)
	}
	assertTraceCoversOwners(t, "http", nw, tr, res.Matches)
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", url, resp.Status, buf.String())
	}
	return buf.String()
}
