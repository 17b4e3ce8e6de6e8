package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"squid/internal/wire"
)

type recorder struct {
	mu   sync.Mutex
	msgs []string
}

func (r *recorder) Deliver(from Addr, msg any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.msgs = append(r.msgs, fmt.Sprintf("%s:%v", from, msg))
}

func (r *recorder) snapshot() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.msgs...)
}

func TestInprocBasicDelivery(t *testing.T) {
	net := NewInproc()
	ra, rb := &recorder{}, &recorder{}
	a, err := net.Listen("a", ra)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Listen("b", rb); err != nil {
		t.Fatal(err)
	}
	if a.Addr() != "a" {
		t.Errorf("Addr = %q", a.Addr())
	}
	for i := 0; i < 5; i++ {
		if err := a.Send("b", i); err != nil {
			t.Fatal(err)
		}
	}
	net.Quiesce()
	got := rb.snapshot()
	if len(got) != 5 {
		t.Fatalf("b received %d messages: %v", len(got), got)
	}
	for i, m := range got {
		if want := fmt.Sprintf("a:%d", i); m != want {
			t.Errorf("message %d = %q, want %q (FIFO violated)", i, m, want)
		}
	}
}

func TestInprocSelfSend(t *testing.T) {
	net := NewInproc()
	ra := &recorder{}
	a, _ := net.Listen("a", ra)
	if err := a.Send("a", "hello"); err != nil {
		t.Fatal(err)
	}
	net.Quiesce()
	if got := ra.snapshot(); len(got) != 1 || got[0] != "a:hello" {
		t.Errorf("self-send got %v", got)
	}
}

func TestInprocUnreachable(t *testing.T) {
	net := NewInproc()
	a, _ := net.Listen("a", &recorder{})
	if err := a.Send("ghost", 1); err != ErrUnreachable {
		t.Errorf("send to ghost: %v", err)
	}
	net.Kill("a")
	if err := a.Send("a", 1); err == nil {
		t.Error("send from killed endpoint should fail")
	}
}

func TestInprocDuplicateName(t *testing.T) {
	net := NewInproc()
	if _, err := net.Listen("a", &recorder{}); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Listen("a", &recorder{}); err == nil {
		t.Error("duplicate name should fail")
	}
	if _, err := net.Listen("x", nil); err == nil {
		t.Error("nil handler should fail")
	}
}

// TestInprocQuiesceCascade checks that Quiesce waits through chains of
// handler-triggered sends, the property the whole simulator depends on.
func TestInprocQuiesceCascade(t *testing.T) {
	net := NewInproc()
	var count atomic.Int64
	const hops = 200
	var eps [3]Endpoint
	for i := 0; i < 3; i++ {
		i := i
		ep, err := net.Listen(Addr(fmt.Sprintf("n%d", i)), HandlerFunc(func(from Addr, msg any) {
			count.Add(1)
			n := msg.(int)
			if n < hops {
				// Bounce to the next endpoint.
				if err := eps[i].Send(Addr(fmt.Sprintf("n%d", (i+1)%3)), n+1); err != nil {
					t.Errorf("bounce: %v", err)
				}
			}
		}))
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
	}
	if err := eps[0].Send("n1", 1); err != nil {
		t.Fatal(err)
	}
	net.Quiesce()
	if got := count.Load(); got != hops {
		t.Errorf("handled %d messages, want %d", got, hops)
	}
}

func TestInprocKillDropsQueued(t *testing.T) {
	net := NewInproc()
	block := make(chan struct{})
	var handled atomic.Int64
	_, err := net.Listen("slow", HandlerFunc(func(from Addr, msg any) {
		handled.Add(1)
		<-block
	}))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := net.Listen("a", &recorder{})
	for i := 0; i < 10; i++ {
		if err := a.Send("slow", i); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until the first message is being handled, then kill: the
	// remaining queued messages must be dropped and Quiesce must not hang.
	for handled.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	net.Kill("slow")
	close(block)
	done := make(chan struct{})
	go func() { net.Quiesce(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Quiesce hung after Kill")
	}
	if err := a.Send("slow", 99); err != ErrUnreachable {
		t.Errorf("send to killed: %v", err)
	}
}

func TestInprocObserver(t *testing.T) {
	net := NewInproc()
	var seen atomic.Int64
	net.SetObserver(func(from, to Addr, msg any) { seen.Add(1) })
	a, _ := net.Listen("a", &recorder{})
	net.Listen("b", &recorder{})
	for i := 0; i < 7; i++ {
		a.Send("b", i)
	}
	a.Send("ghost", 1) // must not be observed
	net.Quiesce()
	if seen.Load() != 7 {
		t.Errorf("observer saw %d messages, want 7", seen.Load())
	}
}

// TestInprocObserverRunsBeforeReceiver checks that the observer sees a
// message before its receiver can: the receiver owns what it is handed
// and may recycle it, so an observer running after the enqueue could
// read a message already zeroed and reused.
func TestInprocObserverRunsBeforeReceiver(t *testing.T) {
	net := NewInproc()
	handled := make(chan struct{}, 1)
	observed := make(chan struct{})
	net.SetObserver(func(from, to Addr, msg any) {
		defer close(observed)
		select {
		case <-handled:
			t.Error("the receiver handled the message before the observer returned")
		case <-time.After(50 * time.Millisecond):
		}
	})
	a, _ := net.Listen("a", &recorder{})
	net.Listen("b", HandlerFunc(func(Addr, any) { handled <- struct{}{} }))
	if err := a.Send("b", 1); err != nil {
		t.Fatal(err)
	}
	<-observed
	net.Quiesce()
}

func TestInprocConcurrentSenders(t *testing.T) {
	net := NewInproc()
	var total atomic.Int64
	net.Listen("sink", HandlerFunc(func(from Addr, msg any) { total.Add(int64(msg.(int))) }))
	var wg sync.WaitGroup
	for s := 0; s < 8; s++ {
		ep, err := net.Listen(Addr(fmt.Sprintf("s%d", s)), &recorder{})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if err := ep.Send("sink", 1); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	net.Quiesce()
	if total.Load() != 8000 {
		t.Errorf("sink total = %d, want 8000", total.Load())
	}
}

type wirePing struct{ N int }

func init() {
	wire.Register(20_002, wirePing{},
		func(e *wire.Encoder, v any) { e.Int(int64(v.(wirePing).N)) },
		func(d *wire.Decoder) any { return wirePing{N: int(d.Int())} })
}

func TestTCPRoundTrip(t *testing.T) {
	ra, rb := &recorder{}, &recorder{}
	a, err := ListenTCP("127.0.0.1:0", ra)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0", rb)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	for i := 0; i < 10; i++ {
		if err := a.Send(b.Addr(), wirePing{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return len(rb.snapshot()) == 10 })
	got := rb.snapshot()
	for i, m := range got {
		if want := fmt.Sprintf("%s:{%d}", a.Addr(), i); m != want {
			t.Errorf("msg %d = %q, want %q", i, m, want)
		}
	}

	// Reply path reuses the reverse direction.
	if err := b.Send(a.Addr(), wirePing{N: 42}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(ra.snapshot()) == 1 })
}

func TestTCPSelfSend(t *testing.T) {
	ra := &recorder{}
	a, err := ListenTCP("127.0.0.1:0", ra)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Send(a.Addr(), wirePing{N: 1}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(ra.snapshot()) == 1 })
}

func TestTCPUnreachableAndClose(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0", &recorder{})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send("127.0.0.1:1", wirePing{}); err == nil {
		t.Error("send to closed port should fail")
	}
	if err := a.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if err := a.Send(a.Addr(), wirePing{}); err != ErrClosed {
		t.Errorf("send after close: %v", err)
	}
}

func TestTCPPeerRestart(t *testing.T) {
	ra := &recorder{}
	a, err := ListenTCP("127.0.0.1:0", ra)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	rb := &recorder{}
	b, err := ListenTCP("127.0.0.1:0", rb)
	if err != nil {
		t.Fatal(err)
	}
	baddr := b.Addr()
	if err := a.Send(baddr, wirePing{N: 1}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(rb.snapshot()) == 1 })
	b.Close()

	// Peer restarts on the same port; the cached dead connection must be
	// replaced transparently (possibly with one failed attempt in between).
	rb2 := &recorder{}
	b2, err := ListenTCP(string(baddr), rb2)
	if err != nil {
		t.Skipf("could not rebind %s: %v", baddr, err)
	}
	defer b2.Close()
	// A write on the stale cached connection may land in the OS buffer and
	// "succeed" before the reset surfaces, so keep probing until the new
	// listener actually receives something.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && len(rb2.snapshot()) == 0 {
		_ = a.Send(baddr, wirePing{N: 2})
		time.Sleep(10 * time.Millisecond)
	}
	if len(rb2.snapshot()) == 0 {
		t.Fatal("restarted peer never received a message")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
