package dessim_test

import (
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
