package dessim

import (
	"fmt"

	"squid/internal/transport"
)

// NetConfig tunes the simulated links: the fault plan's seed, latency
// range and drop rate. The zero value delivers every message instantly and
// reliably — the event-core equivalent of the bare in-process transport.
type NetConfig = transport.FaultConfig

// Net is the discrete-event transport: endpoints attached by symbolic name
// whose sends become delivery events on the core's heap. Every non-self send
// runs through Faults — the same plan type the in-process transport
// consults — with virtual time as its timeline, so one seed gives one fault
// and latency schedule on both drivers.
//
// Self-sends are exempt from faults and latency: both node layers use them
// to inject work into their own delivery context, and faulting them would
// wedge the node rather than the network.
//
// Net is confined to the simulation goroutine, like everything in this
// package; handlers run inside delivery events on that goroutine.
type Net struct {
	// Faults decides every injected drop, delay, partition and crash.
	Faults *transport.Faults

	core     *Core
	boxes    map[transport.Addr]boxRef
	observer transport.Observer
}

// boxRef is a live mailbox with its endpoint number beside it, so a send
// learns the number from the name lookup without touching the box.
type boxRef struct {
	b   *box
	num uint32
}

// box is one attached endpoint's mailbox. A delivery event carries the box
// its send resolved, so delivering does not look the name up again. Kill
// marks the box dead; only then does a delivery go back to the name.
type box struct {
	net  *Net
	addr transport.Addr
	h    transport.Handler
	dead bool
}

// NewNet attaches a discrete-event transport to the core.
func NewNet(core *Core, cfg NetConfig) *Net {
	return &Net{
		Faults: transport.NewFaults(cfg),
		core:   core,
		boxes:  make(map[transport.Addr]boxRef),
	}
}

// SetObserver installs the message observer, called for every message
// accepted for delivery (after the fault plan), before its delivery is
// scheduled: the observer reads a message the receiver will own and must
// not retain it (transport.Observer). Pass nil to remove.
func (n *Net) SetObserver(o transport.Observer) { n.observer = o }

// Listen attaches a handler under the given name and returns its endpoint.
// The name must be unused.
func (n *Net) Listen(name transport.Addr, h transport.Handler) (transport.Endpoint, error) {
	if h == nil {
		return nil, fmt.Errorf("dessim: nil handler for %q", name)
	}
	if _, dup := n.boxes[name]; dup {
		return nil, fmt.Errorf("dessim: address %q already in use", name)
	}
	num := n.Faults.Number(name)
	n.boxes[name] = boxRef{b: &box{net: n, addr: name, h: h}, num: num}
	return &endpoint{net: n, addr: name, num: num}, nil
}

// Kill permanently detaches the named endpoint: scheduled deliveries to it
// evaporate, future sends fail with ErrUnreachable, and any crash mark is
// cleared.
func (n *Net) Kill(name transport.Addr) {
	if r, ok := n.boxes[name]; ok {
		r.b.dead = true
		delete(n.boxes, name)
	}
	n.Faults.Restart(name)
}

// send runs one message from endpoint e through the fault plan and
// schedules a delivery event for the survivors. The plan sees both ends by
// number, so the destination's name is looked up once, here. A
// self-delivery lands at the sending instant; the sequence tie-break keeps
// it FIFO after earlier same-instant work.
func (n *Net) send(e *endpoint, to transport.Addr, msg any) error {
	r, ok := n.boxes[to]
	if !ok {
		return transport.ErrUnreachable
	}
	from := e.addr
	at := n.core.now
	if e.num != r.num { // not a self-send: the numbers are per name
		t, ok := n.Faults.Admit(e.num, r.num, int64(at))
		if !ok {
			return nil
		}
		at = VTime(t)
	}
	n.accept(from, to, msg)
	_, _, ev := n.core.events.Push(int64(max(at, n.core.now)))
	ev.box, ev.from, ev.msg = r.b, from, msg
	return nil
}

// accept notifies the observer of a message that survived the fault plan.
func (n *Net) accept(from, to transport.Addr, msg any) {
	if n.observer != nil {
		n.observer(from, to, msg)
	}
}

// deliver runs one delivery event. Liveness is re-checked at the delivery
// instant: a destination killed while the message was in flight swallows
// it, exactly like the goroutine stack — unless a new listener has since
// attached under the same name, which then takes the message.
func (b *box) deliver(from transport.Addr, msg any) {
	if b.dead {
		r, ok := b.net.boxes[b.addr]
		if !ok {
			return
		}
		b = r.b
	}
	b.h.Deliver(from, msg)
}

// endpoint is one peer's attachment to the event-core network.
type endpoint struct {
	net    *Net
	addr   transport.Addr
	num    uint32 // the fault plan's number for addr
	closed bool
}

func (e *endpoint) Addr() transport.Addr { return e.addr }

func (e *endpoint) Send(to transport.Addr, msg any) error {
	if e.closed {
		return transport.ErrClosed
	}
	return e.net.send(e, to, msg)
}

func (e *endpoint) Close() error {
	e.closed = true
	e.net.Kill(e.addr)
	return nil
}

var _ transport.Endpoint = (*endpoint)(nil)
