package dessim_test

import (
	"slices"
	"sync"
	"testing"
	"time"

	"squid/internal/dessim"
	"squid/internal/transport"
)

// deliverPair attaches two endpoints to a fresh lossless, delayed event
// network and returns a step that sends one pre-boxed payload a → b and runs
// its delivery, plus the receiver's delivery counter.
func deliverPair(tb testing.TB) (step func(), received *int) {
	tb.Helper()
	core := dessim.NewCore()
	net := dessim.NewNet(core, dessim.NetConfig{Seed: 1, MinLatency: time.Millisecond, MaxLatency: 5 * time.Millisecond})
	n := 0
	a, err := net.Listen("a", transport.HandlerFunc(func(transport.Addr, any) {}))
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := net.Listen("b", transport.HandlerFunc(func(transport.Addr, any) { n++ })); err != nil {
		tb.Fatal(err)
	}
	var msg any = &struct{ seq int }{}
	return func() {
		if err := a.Send("b", msg); err != nil {
			tb.Fatal(err)
		}
		if !core.Step() {
			tb.Fatal("send scheduled no delivery")
		}
	}, &n
}

// TestNetDeliverAllocFree pins the closure-free delivery: once the link and
// a pooled event entry exist, a send plus the Step that delivers it
// allocate nothing.
func TestNetDeliverAllocFree(t *testing.T) {
	step, received := deliverPair(t)
	step() // warm: seeds the link, allocates the pooled entry and the heap
	if raceEnabled {
		return
	}
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Errorf("send + Step: %.1f allocs, want 0", n)
	}
	if *received != 102 { // warm-up, AllocsPerRun's own warm-up, 100 runs
		t.Errorf("received %d messages, want 102", *received)
	}
}

// nopHandler is a timer handler that does nothing.
type nopHandler struct{}

func (nopHandler) Fire(uint64) {}

// TestVirtualTimerAllocFree pins the value-handle timer: once the core has
// a pooled entry, arming a timer on the virtual clock, resetting it and
// stopping it allocate nothing.
func TestVirtualTimerAllocFree(t *testing.T) {
	core := dessim.NewCore()
	clock := core.Clock()
	var h transport.TimerHandler = nopHandler{}
	cycle := func() {
		tm := clock.Arm(time.Second, h, 7)
		if !tm.Reset(2*time.Second) || !tm.Stop() {
			t.Fatal("Reset and Stop on a pending timer should report true")
		}
	}
	cycle() // warm: allocates the pooled entry, the heap and the free list
	if raceEnabled {
		return
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("Arm + Reset + Stop: %.1f allocs, want 0", n)
	}
	if core.Pending() != 0 {
		t.Errorf("Pending = %d after stopping every timer", core.Pending())
	}
}

// BenchmarkNetDeliver measures one message through the event network: the
// fault and latency draws, the inline delivery event, and its Step.
func BenchmarkNetDeliver(b *testing.B) {
	step, _ := deliverPair(b)
	step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// sendSequence attaches endpoints a and b through listen, sends n sequenced
// messages a → b, waits for the network to go idle, and returns the
// sequence numbers b received, in arrival order.
func sendSequence(t *testing.T, listen func(transport.Addr, transport.Handler) (transport.Endpoint, error), wait func(), n int) []int {
	t.Helper()
	var (
		mu  sync.Mutex
		got []int
	)
	a, err := listen("a", transport.HandlerFunc(func(transport.Addr, any) {}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := listen("b", transport.HandlerFunc(func(_ transport.Addr, msg any) {
		mu.Lock()
		got = append(got, msg.(int))
		mu.Unlock()
	})); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := a.Send("b", i); err != nil {
			t.Fatal(err)
		}
	}
	wait()
	mu.Lock()
	defer mu.Unlock()
	return got
}

// TestFaultPlanSameOnBothDrivers pins the single fault plan: one seed drops
// exactly the same messages on the goroutine transport and on the event
// core (virtual time), and both account them identically.
func TestFaultPlanSameOnBothDrivers(t *testing.T) {
	cfg := dessim.NetConfig{Seed: 42, DropRate: 0.3}
	const n = 400

	in := transport.NewInproc()
	in.SetFaults(transport.NewFaults(cfg))
	viaInproc := sendSequence(t, in.Listen, in.Quiesce, n)

	core := dessim.NewCore()
	net := dessim.NewNet(core, cfg)
	viaDES := sendSequence(t, net.Listen, func() { core.Run() }, n)

	if !slices.Equal(viaInproc, viaDES) {
		t.Fatalf("same plan, different deliveries: inproc %d/%d, event core %d/%d",
			len(viaInproc), n, len(viaDES), n)
	}
	if len(viaDES) == 0 || len(viaDES) == n {
		t.Fatalf("drop rate 0.3 delivered %d/%d: lottery not applied", len(viaDES), n)
	}
	if a, b := in.Faults().Stats(), net.Faults.Stats(); a != b {
		t.Fatalf("fault stats differ: inproc %+v, event core %+v", a, b)
	}
	t.Logf("both drivers delivered %d/%d", len(viaDES), n)
}

// TestInprocFaultsInstalledAfterListen installs the in-process network's
// plan after both endpoints attached. SetFaults numbers them in the new
// plan, so they see the fates the event core gives them, which numbered
// them at Listen. The plan had numbered the two names in the opposite
// order before, so an endpoint left with its old number would be admitted
// as the other one.
func TestInprocFaultsInstalledAfterListen(t *testing.T) {
	cfg := dessim.NetConfig{Seed: 42, DropRate: 0.3}
	const n = 400

	in := transport.NewInproc()
	plan := transport.NewFaults(cfg)
	plan.Number("b")
	plan.Number("a")
	attached := 0
	listen := func(name transport.Addr, h transport.Handler) (transport.Endpoint, error) {
		ep, err := in.Listen(name, h)
		if attached++; attached == 2 {
			in.SetFaults(plan)
		}
		return ep, err
	}
	viaInproc := sendSequence(t, listen, in.Quiesce, n)

	core := dessim.NewCore()
	net := dessim.NewNet(core, cfg)
	viaDES := sendSequence(t, net.Listen, func() { core.Run() }, n)

	if !slices.Equal(viaInproc, viaDES) {
		t.Fatalf("plan installed after Listen, different deliveries: inproc %d/%d, event core %d/%d",
			len(viaInproc), n, len(viaDES), n)
	}
	if len(viaDES) == 0 || len(viaDES) == n {
		t.Fatalf("drop rate 0.3 delivered %d/%d: lottery not applied", len(viaDES), n)
	}
	if a, b := plan.Stats(), net.Faults.Stats(); a != b {
		t.Fatalf("fault stats differ: inproc %+v, event core %+v", a, b)
	}
}
