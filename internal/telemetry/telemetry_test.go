package telemetry

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry(nil)
	c := r.Counter("squid_test_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter value = %d, want 5", got)
	}
	if again := r.Counter("squid_test_total", "a counter"); again != c {
		t.Fatalf("re-registering a counter must return the same instance")
	}

	g := r.Gauge("squid_keys", "a gauge")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge value = %d, want 7", got)
	}
}

func TestRegistryShapeMismatchPanics(t *testing.T) {
	r := NewRegistry(nil)
	r.Counter("squid_x", "")
	defer func() {
		if recover() == nil {
			t.Fatalf("re-registering a counter as a gauge should panic")
		}
	}()
	r.Gauge("squid_x", "")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry(nil)
	h := r.Histogram("squid_hops", "hops", []int64{1, 3, 8})
	for _, v := range []int64{0, 1, 2, 3, 4, 9, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 7 {
		t.Fatalf("count = %d, want 7", got)
	}
	if got := h.Sum(); got != 119 {
		t.Fatalf("sum = %d, want 119", got)
	}
	// Cumulative: <=1: {0,1} = 2; <=3: +{2,3} = 4; <=8: +{4} = 5; +Inf: 7.
	want := []uint64{2, 4, 5, 7}
	got := h.Buckets()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket[%d] = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
}

func TestVecChildrenCachedAndLabeled(t *testing.T) {
	r := NewRegistry(nil)
	v := r.CounterVec("squid_rpc_total", "per-node RPCs", "node", "kind")
	a := v.With("n1", "find")
	b := v.With("n1", "find")
	if a != b {
		t.Fatalf("With must cache children per label set")
	}
	v.With("n2", "state").Add(3)
	a.Inc()

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE squid_rpc_total counter",
		`squid_rpc_total{node="n1",kind="find"} 1`,
		`squid_rpc_total{node="n2",kind="state"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestCounterVecSum(t *testing.T) {
	r := NewRegistry(nil)
	v := r.CounterVec("squid_rpc_total", "per-node RPCs", "node", "op")
	v.With("n1", "find").Add(2)
	v.With("n2", "find").Add(3)
	v.With("n1", "state").Add(7)
	for _, c := range []struct {
		label, value string
		want         uint64
	}{
		{"op", "find", 5},
		{"op", "state", 7},
		{"node", "n1", 9},
		{"op", "absent", 0},
		{"", "", 12},
		{"", "ignored", 12},
		{"zone", "n1", 0},
	} {
		if got := v.Sum(c.label, c.value); got != c.want {
			t.Errorf("Sum(%q, %q) = %d, want %d", c.label, c.value, got, c.want)
		}
	}
}

// TestCounterVecSumConcurrent reads sums while other goroutines add
// children and increment them; run under -race.
func TestCounterVecSumConcurrent(t *testing.T) {
	r := NewRegistry(nil)
	v := r.CounterVec("squid_rpc_total", "per-node RPCs", "node", "op")
	const writers, perWriter = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				v.With(strconv.Itoa(w*perWriter+i), "find").Inc()
			}
		}(w)
	}
	var last uint64
	for i := 0; i < 100; i++ {
		s := v.Sum("op", "find")
		if s < last {
			t.Fatalf("sum went backwards: %d after %d", s, last)
		}
		last = s
	}
	wg.Wait()
	if got := v.Sum("", ""); got != writers*perWriter {
		t.Fatalf("final sum = %d, want %d", got, writers*perWriter)
	}
}

func TestVecWrongLabelCountPanics(t *testing.T) {
	r := NewRegistry(nil)
	v := r.CounterVec("squid_y_total", "", "node")
	defer func() {
		if recover() == nil {
			t.Fatalf("wrong label count should panic")
		}
	}()
	v.With("a", "b")
}

func TestPrometheusHistogramRendering(t *testing.T) {
	r := NewRegistry(nil)
	h := r.Histogram("squid_lat_ns", "latency", []int64{100, 1000})
	h.Observe(50)
	h.Observe(500)
	h.Observe(5000)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE squid_lat_ns histogram",
		`squid_lat_ns_bucket{le="100"} 1`,
		`squid_lat_ns_bucket{le="1000"} 2`,
		`squid_lat_ns_bucket{le="+Inf"} 3`,
		"squid_lat_ns_sum 5550",
		"squid_lat_ns_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestInjectedClock(t *testing.T) {
	r := NewRegistry(nil)
	if !r.Now().IsZero() {
		t.Fatalf("nil clock: Now must be the zero time")
	}
	if d := r.Since(time.Time{}); d != 0 {
		t.Fatalf("nil clock: Since must be 0, got %v", d)
	}

	base := time.Unix(1000, 0)
	now := base
	r2 := NewRegistry(func() time.Time { return now })
	if !r2.Now().Equal(base) {
		t.Fatalf("injected clock not used")
	}
	now = base.Add(3 * time.Second)
	if d := r2.Since(base); d != 3*time.Second {
		t.Fatalf("Since = %v, want 3s", d)
	}
}

// TestCounterIncAllocFree pins the hot-path contract: once a family
// child is resolved, increments and observes allocate nothing.
func TestCounterIncAllocFree(t *testing.T) {
	r := NewRegistry(nil)
	c := r.CounterVec("squid_test_total", "", "node").With("n1")
	g := r.Gauge("squid_keys", "")
	h := r.Histogram("squid_lat_ns", "", []int64{1, 2, 4, 8})
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(3)
		g.Set(7)
		h.Observe(5)
	}); n != 0 {
		t.Fatalf("hot-path metric ops allocate: %v allocs/run", n)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry(nil)
	c := r.CounterVec("squid_bench_total", "", "node").With("n1")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
	if c.Value() == 0 {
		b.Fatal("counter did not count")
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry(nil)
	h := r.Histogram("squid_bench_hist", "", []int64{1, 2, 4, 8, 16, 32})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i & 63))
	}
}
