package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Observer inspects every message accepted for delivery on an in-process
// network. Observers run synchronously in the sender's goroutine and must be
// fast and safe for concurrent use. An observer runs before the receiver
// can see the message, because the receiver owns what it is handed and may
// recycle it (MsgPool): an observer must not retain msg or anything it
// points to. It runs under the destination mailbox's lock, so it must not
// send. The simulator uses one to count per-query messages exactly as the
// paper's simulator does.
type Observer func(from, to Addr, msg any)

// Inproc is an in-memory network connecting endpoints by symbolic name.
// Each endpoint owns one goroutine that delivers its mailbox sequentially.
// Inproc tracks in-flight work so callers can wait for the network to
// quiesce — the simulation primitive behind every experiment in this
// repository.
//
// Every send between distinct endpoints runs through the network's fault
// plan: a dropped message vanishes (the sender sees success) and a
// survivor is enqueued at once. The plan's latency is ignored here; it
// acts only on the event core (dessim), in virtual time. A fresh
// network's plan is empty and injects nothing.
type Inproc struct {
	mu       sync.Mutex
	boxes    map[Addr]*mailbox
	observer Observer
	faults   *Faults
	met      *inprocMetrics

	// In-flight accounting is a cond-guarded counter rather than a
	// WaitGroup: recovery timers may inject messages concurrently with
	// Quiesce, and WaitGroup forbids Add-from-zero racing Wait.
	imu      sync.Mutex
	icond    *sync.Cond
	inflight int

	// activity counts every successfully enqueued message, monotonically.
	// The simulator's quiesce loop compares samples taken around a
	// transport-and-scheduler sweep: an unchanged counter proves nothing —
	// not even a self-send — happened during the sweep.
	activity atomic.Uint64
}

// NewInproc returns an empty in-process network.
func NewInproc() *Inproc {
	n := &Inproc{
		boxes:  make(map[Addr]*mailbox),
		faults: NewFaults(FaultConfig{}),
	}
	n.icond = sync.NewCond(&n.imu)
	return n
}

// SetFaults installs the fault plan that decides every non-self send and
// numbers the attached endpoints in it. Call before traffic starts (like
// SetObserver).
func (n *Inproc) SetFaults(f *Faults) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.faults = f
	for name, box := range n.boxes {
		box.num = f.Number(name)
	}
}

// Faults returns the network's fault plan.
func (n *Inproc) Faults() *Faults {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.faults
}

// SetObserver installs the message observer. Pass nil to remove. Must not
// be called concurrently with message sends.
func (n *Inproc) SetObserver(o Observer) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.observer = o
}

// Listen attaches a handler under the given name and returns its endpoint.
// The name must be unused.
func (n *Inproc) Listen(name Addr, h Handler) (Endpoint, error) {
	if h == nil {
		return nil, fmt.Errorf("transport: nil handler for %q", name)
	}
	box := &mailbox{net: n, addr: name, handler: h}
	box.cond = sync.NewCond(&box.mu)

	n.mu.Lock()
	if _, dup := n.boxes[name]; dup {
		n.mu.Unlock()
		return nil, fmt.Errorf("transport: address %q already in use", name)
	}
	box.num = n.faults.Number(name)
	n.boxes[name] = box
	n.mu.Unlock()

	go box.run()
	return box, nil
}

// Kill abruptly detaches the named endpoint, modelling a node failure:
// queued messages are dropped, future sends fail with ErrUnreachable, and
// any crash mark is cleared.
func (n *Inproc) Kill(name Addr) {
	n.mu.Lock()
	box := n.boxes[name]
	delete(n.boxes, name)
	faults := n.faults
	n.mu.Unlock()
	faults.Restart(name)
	if box != nil {
		box.close()
	}
}

// Quiesce blocks until no message is queued or being handled anywhere in
// the network. It is only meaningful while
// no external goroutine keeps injecting messages.
func (n *Inproc) Quiesce() {
	n.imu.Lock()
	for n.inflight > 0 {
		n.icond.Wait()
	}
	n.imu.Unlock()
}

// Activity returns the monotonic count of messages accepted for delivery
// since the network was created. Safe from any goroutine.
func (n *Inproc) Activity() uint64 {
	return n.activity.Load()
}

func (n *Inproc) track() {
	n.imu.Lock()
	n.inflight++
	n.imu.Unlock()
}

func (n *Inproc) done() {
	n.imu.Lock()
	n.inflight--
	if n.inflight == 0 {
		n.icond.Broadcast()
	}
	n.imu.Unlock()
}

// send runs one message from src's endpoint through the fault plan, which
// sees both ends by their numbers, and enqueues a survivor into the
// destination's mailbox.
func (n *Inproc) send(src *mailbox, to Addr, msg any) error {
	n.mu.Lock()
	box, faults, fromNum := n.boxes[to], n.faults, src.num
	obs, met := n.observer, n.met
	var toNum uint32
	if box != nil {
		toNum = box.num
	}
	n.mu.Unlock()
	if box != nil {
		if src.addr != to {
			if _, ok := faults.Admit(fromNum, toNum, 0); !ok {
				return nil
			}
		}
		n.track()
		if box.enqueue(src.addr, msg, obs) {
			n.activity.Add(1)
			if met != nil {
				met.sent.Inc()
			}
			return nil
		}
		n.done()
	}
	if met != nil {
		met.unreachable.Inc()
	}
	return ErrUnreachable
}

type envelope struct {
	from Addr
	msg  any
}

// mailbox is an unbounded FIFO queue drained by one goroutine. Unbounded
// queues keep the network deadlock-free: handlers may fan out arbitrarily
// many sends without ever blocking on a peer's backlog (the simulator's
// workloads are finite, so memory is bounded by the experiment).
type mailbox struct {
	net     *Inproc
	addr    Addr
	num     uint32 // the fault plan's number for addr; guarded by net.mu
	handler Handler

	mu     sync.Mutex
	cond   *sync.Cond
	queue  FIFO[envelope]
	closed bool
}

func (b *mailbox) Addr() Addr { return b.addr }

func (b *mailbox) Send(to Addr, msg any) error {
	b.mu.Lock()
	closed := b.closed
	b.mu.Unlock()
	if closed {
		return ErrClosed
	}
	return b.net.send(b, to, msg)
}

func (b *mailbox) Close() error {
	b.net.Kill(b.addr)
	return nil
}

// enqueue appends msg unless the mailbox is closed. obs, when set, sees an
// accepted message under the lock, before the receiver goroutine can take
// (and recycle) it.
func (b *mailbox) enqueue(from Addr, msg any, obs Observer) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return false
	}
	if obs != nil {
		obs(from, b.addr, msg)
	}
	b.queue.Push(envelope{from, msg})
	b.cond.Signal()
	return true
}

func (b *mailbox) close() {
	b.mu.Lock()
	b.closed = true
	dropped := b.queue.Len()
	b.queue = FIFO[envelope]{}
	b.cond.Signal()
	b.mu.Unlock()
	for i := 0; i < dropped; i++ {
		b.net.done()
	}
}

func (b *mailbox) run() {
	for {
		b.mu.Lock()
		for b.queue.Len() == 0 && !b.closed {
			b.cond.Wait()
		}
		if b.closed {
			b.mu.Unlock()
			return
		}
		env := b.queue.Pop()
		b.mu.Unlock()

		b.handler.Deliver(env.from, env.msg)
		b.net.done()
	}
}
