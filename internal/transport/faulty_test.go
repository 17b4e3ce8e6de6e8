package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// faultRecorder collects delivered payloads in order.
type faultRecorder struct {
	mu   sync.Mutex
	msgs []any
}

func (r *faultRecorder) Deliver(_ Addr, msg any) {
	r.mu.Lock()
	r.msgs = append(r.msgs, msg)
	r.mu.Unlock()
}

func (r *faultRecorder) snapshot() []any {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]any(nil), r.msgs...)
}

// faultyInproc returns an in-process network under a fresh fault plan.
func faultyInproc(cfg FaultConfig) *Inproc {
	f := NewInproc()
	f.SetFaults(NewFaults(cfg))
	return f
}

// runSchedule sends n sequenced messages a->b through a fresh faulty
// network with the given seed and returns which sequence numbers arrived.
func runSchedule(t *testing.T, seed int64, rate float64, n int) []any {
	t.Helper()
	f := faultyInproc(FaultConfig{Seed: seed, DropRate: rate})
	rec := &faultRecorder{}
	a, err := f.Listen("a", HandlerFunc(func(Addr, any) {}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Listen("b", rec); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := a.Send("b", i); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	f.Quiesce()
	return rec.snapshot()
}

// TestFaultyDeterministicSchedule is the reproducibility guarantee: the
// same seed yields exactly the same drop schedule; a different seed yields
// a different one.
func TestFaultyDeterministicSchedule(t *testing.T) {
	const n = 400
	got1 := runSchedule(t, 42, 0.3, n)
	got2 := runSchedule(t, 42, 0.3, n)
	if len(got1) != len(got2) {
		t.Fatalf("same seed delivered %d vs %d messages", len(got1), len(got2))
	}
	for i := range got1 {
		if got1[i] != got2[i] {
			t.Fatalf("same seed diverged at delivery %d: %v vs %v", i, got1[i], got2[i])
		}
	}
	if len(got1) == 0 || len(got1) == n {
		t.Fatalf("drop rate 0.3 delivered %d/%d — lottery not applied", len(got1), n)
	}
	other := runSchedule(t, 43, 0.3, n)
	same := len(other) == len(got1)
	if same {
		for i := range other {
			if other[i] != got1[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestFaultySelfSendExempt: self-sends must never be faulted — both
// transports use them to drive the endpoint's own goroutine.
func TestFaultySelfSendExempt(t *testing.T) {
	f := faultyInproc(FaultConfig{Seed: 1, DropRate: 1.0})
	rec := &faultRecorder{}
	a, err := f.Listen("a", rec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := a.Send("a", i); err != nil {
			t.Fatal(err)
		}
	}
	f.Quiesce()
	if got := len(rec.snapshot()); got != 10 {
		t.Fatalf("self-sends delivered %d/10 under drop rate 1.0", got)
	}
}

func TestFaultyPartitionAndHeal(t *testing.T) {
	f := faultyInproc(FaultConfig{Seed: 7})
	rec := &faultRecorder{}
	a, err := f.Listen("a", HandlerFunc(func(Addr, any) {}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Listen("b", rec); err != nil {
		t.Fatal(err)
	}

	f.Faults().Partition([]Addr{"a"}, []Addr{"b"})
	if err := a.Send("b", "lost"); err != nil {
		t.Fatal(err)
	}
	f.Quiesce()
	if len(rec.snapshot()) != 0 {
		t.Fatal("message crossed an active partition")
	}
	if s := f.Faults().Stats(); s.PartitionDrops != 1 {
		t.Fatalf("PartitionDrops = %d, want 1", s.PartitionDrops)
	}

	f.Faults().Heal()
	if err := a.Send("b", "through"); err != nil {
		t.Fatal(err)
	}
	f.Quiesce()
	if got := rec.snapshot(); len(got) != 1 || got[0] != "through" {
		t.Fatalf("after heal got %v, want [through]", got)
	}
}

func TestFaultyCrashRestart(t *testing.T) {
	f := faultyInproc(FaultConfig{Seed: 7})
	rec := &faultRecorder{}
	a, err := f.Listen("a", HandlerFunc(func(Addr, any) {}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Listen("b", rec); err != nil {
		t.Fatal(err)
	}

	f.Faults().Crash("b")
	// Both directions are black holes while crashed, and the sender sees
	// success — a crash is indistinguishable from loss.
	if err := a.Send("b", "vanished"); err != nil {
		t.Fatalf("send to crashed endpoint: %v", err)
	}
	f.Quiesce()
	if len(rec.snapshot()) != 0 {
		t.Fatal("crashed endpoint received a message")
	}
	if s := f.Faults().Stats(); s.CrashDrops != 1 {
		t.Fatalf("CrashDrops = %d, want 1", s.CrashDrops)
	}

	f.Faults().Restart("b")
	if err := a.Send("b", "back"); err != nil {
		t.Fatal(err)
	}
	f.Quiesce()
	if got := rec.snapshot(); len(got) != 1 || got[0] != "back" {
		t.Fatalf("after restart got %v, want [back]", got)
	}

	// Killing an endpoint clears its crash mark along with the endpoint.
	f.Faults().Crash("b")
	f.Kill("b")
	if f.Faults().Crashed("b") {
		t.Fatal("Kill left the crash mark behind")
	}
}

// TestFaultyAdmitNumberedAgrees: two plans that numbered the same
// endpoints in opposite orders give every message the same fate — drops,
// arrival instants, crash and partition losses, per-link overrides —
// because a link's sequence is seeded from the names, not the numbers. No
// message crosses a crash, the partition or a certain per-link drop.
// 20 000 messages over 300 endpoints also grow the link table many times.
func TestFaultyAdmitNumberedAgrees(t *testing.T) {
	const n = 300
	cfg := FaultConfig{Seed: 5, MinLatency: time.Millisecond, MaxLatency: 50 * time.Millisecond, DropRate: 0.2}
	up, down := NewFaults(cfg), NewFaults(cfg)
	names := make([]Addr, n)
	upNums, downNums := make([]uint32, n), make([]uint32, n)
	for i := range names {
		names[i] = Addr(fmt.Sprintf("n%d", i))
		upNums[i] = up.Number(names[i])
	}
	for i := n - 1; i >= 0; i-- {
		downNums[i] = down.Number(names[i])
	}
	both := func(f func(*Faults)) { f(up); f(down) }

	rng := rand.New(rand.NewSource(11))
	for k := 0; k < 20000; k++ {
		switch k {
		case 4000:
			both(func(f *Faults) { f.Crash(names[3]); f.SetLinkDrop(names[1], names[2], 1) })
		case 8000:
			both(func(f *Faults) { f.Partition(names[:10], names[10:40]) })
		case 12000:
			both(func(f *Faults) { f.Heal(); f.Restart(names[3]); f.ClearLinkDrops() })
		}
		from, to := rng.Intn(n), rng.Intn(n-1)
		if to >= from {
			to++
		}
		if k%50 == 0 {
			from, to = 1, 2 // keep the overridden link busy
		}
		now := int64(k) * int64(time.Millisecond)
		at1, ok1 := up.Admit(upNums[from], upNums[to], now)
		at2, ok2 := down.Admit(downNums[from], downNums[to], now)
		if at1 != at2 || ok1 != ok2 {
			t.Fatalf("message %d %s->%s: numbered up (%d, %v), numbered down (%d, %v)",
				k, names[from], names[to], at1, ok1, at2, ok2)
		}
		crashed := k >= 4000 && k < 12000 && (from == 3 || to == 3)
		split := k >= 8000 && k < 12000 && partGroup(from) != partGroup(to)
		if ok1 && (crashed || split || from == 1 && to == 2 && k >= 4000 && k < 12000) {
			t.Fatalf("message %d %s->%s admitted through a crash, a partition or a certain drop", k, names[from], names[to])
		}
	}
	s1, s2 := up.Stats(), down.Stats()
	if s1 != s2 {
		t.Fatalf("stats differ: numbered up %+v, numbered down %+v", s1, s2)
	}
	if s1.Dropped == 0 || s1.CrashDrops == 0 || s1.PartitionDrops == 0 || s1.Delivered == 0 {
		t.Fatalf("schedule missed a fault kind: %+v", s1)
	}
}

// partGroup is TestFaultyAdmitNumberedAgrees's partition: n0–n9, n10–n39,
// and everyone else in the implicit group of the unlisted.
func partGroup(i int) int {
	switch {
	case i < 10:
		return 1
	case i < 40:
		return 2
	}
	return 0
}
