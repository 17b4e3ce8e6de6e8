package dessim_test

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"squid/internal/chord"
	"squid/internal/dessim"
	"squid/internal/keyspace"
	"squid/internal/sim"
	"squid/internal/squid"
	"squid/internal/transport"
	"squid/internal/workload"
)

// TestQueryMessagesByKind pins what a query costs on the wire, split by
// message kind: 99 paper-mix streaming queries (Q1, Q2, Q3 keyword) start
// 20 ms of virtual time apart on a 200-node ring with 5-80 ms links and no
// loss, under the benchmark's engine settings (probe cache, subtree
// recovery deadline, query deadline). Every message between two distinct
// endpoints counts once under its Go type, and a routed message's kind
// also names its payload's type. A protocol change that adds, drops or
// reshapes traffic moves these totals, so it re-records them here with the
// reason. The last re-record deleted the relayed PartialResultMsg (443 of
// 4,184): every subtree now reports once, in its one SubResultMsg.
func TestQueryMessagesByKind(t *testing.T) {
	space, err := keyspace.NewWordSpace(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := dessim.Build(dessim.Config{
		Nodes: 200,
		Space: space,
		Seed:  41,
		Net: dessim.NetConfig{
			Seed:       42,
			MinLatency: 5 * time.Millisecond,
			MaxLatency: 80 * time.Millisecond,
		},
		Chord: chord.Config{RPCTimeout: 5 * time.Second},
		Engine: squid.Options{
			ProbeCacheSize: 256,
			SubtreeTimeout: 5 * time.Second,
			QueryDeadline:  10 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	vocab := workload.NewVocabulary(43, 1200, 1.2)
	if err := nw.Preload(workload.Elements(workload.KeyTuples(vocab, 44, 5000, 2))); err != nil {
		t.Fatal(err)
	}
	gen := workload.NewQueryGen(vocab, 45, 2)
	var queries []keyspace.Query
	for range 33 {
		queries = append(queries, gen.Q1(), gen.Q2(), gen.Q3Keyword())
	}

	byKind := map[string]int{}
	nw.Net.SetObserver(func(from, to transport.Addr, msg any) {
		if from == to {
			return // Invoke closures and scheduler completions never leave the node
		}
		kind := fmt.Sprintf("%T", msg)
		if r, ok := msg.(*chord.RouteMsg); ok {
			kind += fmt.Sprintf("[%T]", r.Payload)
		}
		byKind[kind]++
	})
	done, failed := 0, 0
	for i, q := range queries {
		nw.Schedule(time.Duration(i)*20*time.Millisecond, func() {
			p := nw.Peers[i%len(nw.Peers)]
			sim.MustInvoke(p, func() {
				_, err := p.Engine.QueryStreamFunc(context.Background(), q, func(ev squid.StreamEvent) {
					if ev.Done {
						done++
						if ev.Err != nil {
							failed++
						}
					}
				})
				if err != nil {
					t.Errorf("query %d: %v", i, err)
				}
			})
		})
	}
	nw.Run()
	if done != len(queries) || failed != 0 {
		t.Fatalf("%d of %d queries finished, %d with an error", done, len(queries), failed)
	}

	want := map[string]int{
		"*chord.FindMsg":                          1135,
		"*chord.FoundMsg":                         546,
		"*chord.RouteMsg[*squid.ClusterQueryMsg]": 160,
		"*squid.ClusterQueryMsg":                  932,
		"*squid.SubResultMsg":                     968,
	}
	const wantTotal = 3741 // 37.79 per query
	total := 0
	for _, n := range byKind {
		total += n
	}
	if !maps.Equal(byKind, want) {
		var got strings.Builder
		for _, k := range slices.Sorted(maps.Keys(byKind)) {
			fmt.Fprintf(&got, "\t%q: %d,\n", k, byKind[k])
		}
		t.Errorf("messages by kind moved; got\n%s", got.String())
	}
	if total != wantTotal {
		t.Errorf("%d messages (%.2f per query), pinned %d (%.2f per query)", total,
			float64(total)/float64(len(queries)), wantTotal, float64(wantTotal)/float64(len(queries)))
	}
}
