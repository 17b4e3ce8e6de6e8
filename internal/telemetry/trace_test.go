package telemetry

import (
	"strings"
	"testing"
)

func sampleTrace() Trace {
	return Trace{
		QID:     7,
		Partial: true,
		Spans: []Span{
			{QID: 7, ID: 1, Parent: 0, Kind: "root", Node: 0xa, Clusters: 4, Children: 2, Matches: 1},
			{QID: 7, ID: 2, Parent: 1, Depth: 1, Kind: "cluster", Node: 0xb, Clusters: 2, Matches: 3},
			{QID: 7, ID: 3, Parent: 1, Depth: 1, Kind: "lost", Node: 0xc, Abandoned: true},
			{QID: 7, ID: 4, Parent: 2, Depth: 2, Kind: "cluster", Node: 0xd, Prefix: 0x3c, Level: 16, Clusters: 1, Local: 1, Matches: 2},
		},
	}
}

func TestTraceAccessors(t *testing.T) {
	tr := sampleTrace()
	root := tr.Root()
	if root == nil || root.Node != 0xa {
		t.Fatalf("Root() = %+v, want the root span on node a", root)
	}
	nodes := tr.Nodes()
	for _, n := range []uint64{0xa, 0xb, 0xd} {
		if !nodes[n] {
			t.Fatalf("Nodes() missing %x: %v", n, nodes)
		}
	}
	if nodes[0xc] {
		t.Fatalf("lost spans must not count as visited nodes")
	}
	if !tr.Visited(0xb) || tr.Visited(0xc) {
		t.Fatalf("Visited misclassifies lost spans")
	}
	if lost := tr.Lost(); len(lost) != 1 || lost[0].Node != 0xc {
		t.Fatalf("Lost() = %+v, want the abandoned span on node c", lost)
	}
	if m := tr.Matches(); m != 6 {
		t.Fatalf("Matches() = %d, want 6", m)
	}
}

func TestTraceRender(t *testing.T) {
	tr := sampleTrace()
	var sb strings.Builder
	tr.Render(&sb)
	out := sb.String()
	for _, want := range []string{
		"query 7: PARTIAL, 4 spans, 6 matches",
		"root node=a",
		"cluster node=b",
		"LOST node=c",
		"cluster node=d prefix=3c/16",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// The lookup leaf sits two levels deep.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "lookup node=d") && !strings.HasPrefix(line, "      ") {
			t.Fatalf("lookup span not indented under its parent chain:\n%s", out)
		}
	}
}

func TestTraceRefDefaults(t *testing.T) {
	var zero TraceRef // what a message without trace context carries
	if zero.Sampled() {
		t.Fatalf("zero ref must not claim to be sampled")
	}
	root := zero.OrRoot()
	if root.Parent != 0 || root.Depth != 0 || !root.Sampled() {
		t.Fatalf("OrRoot() of a zero ref = %+v, want a sampled root context", root)
	}

	explicit := TraceRef{Parent: 9, Depth: 2, Mode: TraceOff}
	if got := explicit.OrRoot(); got != explicit {
		t.Fatalf("OrRoot must pass explicit contexts through, got %+v", got)
	}

	child := TraceRef{Parent: 9, Depth: 2, Mode: TraceOn}.Child(42)
	if child.Parent != 42 || child.Depth != 3 || !child.Sampled() {
		t.Fatalf("Child() = %+v, want parent 42 depth 3 sampled", child)
	}
}

func TestTraceStoreFIFOEviction(t *testing.T) {
	s := NewTraceStore(2)
	s.Add(Trace{QID: 1})
	s.Add(Trace{QID: 2})
	s.Add(Trace{QID: 3})
	if _, ok := s.Get(1); ok {
		t.Fatalf("oldest trace should have been evicted")
	}
	if _, ok := s.Get(2); !ok {
		t.Fatalf("trace 2 should survive")
	}
	if got := s.IDs(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("IDs() = %v, want [2 3]", got)
	}
	last, ok := s.Last()
	if !ok || last.QID != 3 {
		t.Fatalf("Last() = %+v, want trace 3", last)
	}

	// Replacing an existing QID must not evict anything.
	s.Add(Trace{QID: 2, Partial: true})
	if got, _ := s.Get(2); !got.Partial {
		t.Fatalf("re-adding a QID should replace the stored trace")
	}
	if _, ok := s.Get(3); !ok {
		t.Fatalf("replacement must not evict other traces")
	}
}
