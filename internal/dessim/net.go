package dessim

import (
	"fmt"
	"hash/fnv"
	"time"

	"squid/internal/transport"
)

// NetConfig tunes the simulated links. The zero value delivers every
// message instantly and reliably — the event-core equivalent of the bare
// in-process transport.
type NetConfig struct {
	// Seed drives every fault and latency decision. As in the goroutine
	// backend's fault layer, each directed link owns a random sequence
	// derived from Seed, consumed one (drop, latency) pair per message, so
	// the schedule is stable per link regardless of cross-link ordering.
	Seed int64
	// MinLatency/MaxLatency bound a uniform per-message delivery latency on
	// the virtual timeline. MaxLatency <= 0 delivers at the sending instant
	// (ordered after already-scheduled same-instant events).
	MinLatency, MaxLatency time.Duration
	// DropRate is the default probability in [0, 1) that a message is
	// silently lost (the sender sees success). Per-link overrides win.
	DropRate float64
}

// Net is the discrete-event transport: endpoints attached by symbolic name
// whose sends become delivery events on the core's heap. It carries the
// fault-injection surface of transport.Faulty — seeded drops, latency,
// partitions, crash/restart — natively on virtual time, so the chaos soaks
// run unchanged at planet scale.
//
// Self-sends are exempt from all faults and latency, for the same reason as
// in the goroutine stack: both node layers use them to inject work into
// their own delivery context, and faulting them would wedge the node rather
// than the network.
//
// Net is confined to the simulation goroutine, like everything in this
// package; handlers run inside delivery events on that goroutine.
type Net struct {
	core *Core
	seed int64

	boxes    map[transport.Addr]transport.Handler
	observer transport.Observer

	dropRate float64
	minLat   time.Duration
	maxLat   time.Duration
	linkRate map[linkKey]float64
	links    map[uint64]linkState      // by value, keyed by endpoint numbers from<<32 | to
	ids      map[transport.Addr]uint32 // endpoint numbers in order of first use, never reused
	group    map[transport.Addr]int
	split    bool
	crashed  map[transport.Addr]bool

	stats transport.FaultStats
}

type linkKey struct{ from, to transport.Addr }

// linkState is everything one directed link owns: its private random
// sequence and its FIFO arrival floor. The generator is splitmix64 rather
// than math/rand's lagged-Fibonacci source because a planet-scale ring
// touches 10⁵+ directed links and each math/rand source carries ~5 KB of
// state — hundreds of megabytes the collector would rescan forever — while
// splitmix64 is 8 bytes and a few arithmetic ops per draw, with the same
// determinism guarantee: a link's schedule depends only on the seed and its
// own message order.
type linkState struct {
	rng   uint64
	floor VTime
}

// next advances the splitmix64 sequence (Steele et al., "Fast Splittable
// Pseudorandom Number Generators").
func (s *linkState) next() uint64 {
	s.rng += 0x9e3779b97f4a7c15
	z := s.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform draw in [0, 1) from the link's sequence.
func (s *linkState) float64() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

// NewNet attaches a discrete-event transport to the core.
func NewNet(core *Core, cfg NetConfig) *Net {
	return &Net{
		core:     core,
		seed:     cfg.Seed,
		boxes:    make(map[transport.Addr]transport.Handler),
		dropRate: cfg.DropRate,
		minLat:   cfg.MinLatency,
		maxLat:   cfg.MaxLatency,
		linkRate: make(map[linkKey]float64),
		links:    make(map[uint64]linkState),
		ids:      make(map[transport.Addr]uint32),
		group:    make(map[transport.Addr]int),
		crashed:  make(map[transport.Addr]bool),
	}
}

// SetObserver installs the message observer, called for every message
// accepted for delivery (after the fault lottery). Pass nil to remove.
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
	n.boxes[name] = h
	return &endpoint{net: n, addr: name}, nil
}

// Kill permanently detaches the named endpoint: scheduled deliveries to it
// evaporate and future sends fail with ErrUnreachable.
func (n *Net) Kill(name transport.Addr) {
	delete(n.boxes, name)
	delete(n.crashed, name)
}

// SetDropRate changes the default drop probability. 0 heals drop faults.
func (n *Net) SetDropRate(p float64) { n.dropRate = p }

// SetLinkDrop overrides the drop probability of one directed link.
func (n *Net) SetLinkDrop(from, to transport.Addr, p float64) {
	n.linkRate[linkKey{from, to}] = p
}

// ClearLinkDrops removes all per-link drop overrides.
func (n *Net) ClearLinkDrops() { n.linkRate = make(map[linkKey]float64) }

// SetDelay changes the injected latency range. max <= 0 disables latency.
func (n *Net) SetDelay(min, max time.Duration) { n.minLat, n.maxLat = min, max }

// Partition splits the network: each listed group talks only within
// itself, unlisted addresses form one implicit group of their own, and
// messages crossing group boundaries are silently lost.
func (n *Net) Partition(groups ...[]transport.Addr) {
	n.group = make(map[transport.Addr]int)
	for i, g := range groups {
		for _, a := range g {
			n.group[a] = i + 1
		}
	}
	n.split = true
}

// Heal removes any partition.
func (n *Net) Heal() {
	n.group = make(map[transport.Addr]int)
	n.split = false
}

// Crash black-holes an endpoint without detaching it: messages to and from
// it are lost at the sending instant, modelling a frozen process. State
// survives; Restart reconnects it.
func (n *Net) Crash(name transport.Addr) { n.crashed[name] = true }

// Crashed reports whether the named endpoint is currently black-holed.
func (n *Net) Crashed(name transport.Addr) bool { return n.crashed[name] }

// Restart reconnects a crashed endpoint.
func (n *Net) Restart(name transport.Addr) { delete(n.crashed, name) }

// Stats snapshots the fault counters, in the same shape as the goroutine
// stack's fault layer.
func (n *Net) Stats() transport.FaultStats { return n.stats }

// id returns an endpoint's number, assigning the next one on first use.
func (n *Net) id(a transport.Addr) uint32 {
	if id, ok := n.ids[a]; ok {
		return id
	}
	id := uint32(len(n.ids))
	n.ids[a] = id
	return id
}

// link returns the key and current state of one directed link, seeding its
// random sequence on first use from the net seed and the link's name — as
// in transport.Faulty, a link's fault schedule depends only on the seed and
// its own message order, never on cross-link interleaving. The caller
// stores the advanced state back under the key.
func (n *Net) link(from, to transport.Addr) (uint64, linkState) {
	key := uint64(n.id(from))<<32 | uint64(n.id(to))
	if s, ok := n.links[key]; ok {
		return key, s
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(from)) // hash.Hash.Write never fails
	_, _ = h.Write([]byte{0})    // hash.Hash.Write never fails
	_, _ = h.Write([]byte(to))   // hash.Hash.Write never fails
	return key, linkState{rng: uint64(n.seed) ^ h.Sum64()}
}

// send runs one message through the fault plan and schedules a delivery
// event for the survivors.
func (n *Net) send(from, to transport.Addr, msg any) error {
	if _, ok := n.boxes[to]; !ok {
		return transport.ErrUnreachable
	}
	if from == to {
		// Self-delivery: exempt from faults and latency; the sequence
		// tie-break keeps it FIFO after earlier same-instant work.
		n.accept(from, to, msg)
		n.core.scheduleDelivery(n.core.now, n, from, to, msg)
		return nil
	}
	if n.crashed[from] || n.crashed[to] {
		n.stats.CrashDrops++
		return nil
	}
	if n.split && n.group[from] != n.group[to] {
		n.stats.PartitionDrops++
		return nil
	}
	rate := n.dropRate
	if len(n.linkRate) > 0 {
		if r, ok := n.linkRate[linkKey{from, to}]; ok {
			rate = r
		}
	}
	key, st := n.link(from, to)
	// Always consume both draws so the link's schedule does not shift when
	// latency settings change mid-run.
	dropDraw := st.float64()
	latDraw := st.float64()
	if rate > 0 && dropDraw < rate {
		n.links[key] = st
		n.stats.Dropped++
		return nil
	}
	at := n.core.now
	if n.maxLat > 0 {
		at += VTime(n.minLat + time.Duration(latDraw*float64(n.maxLat-n.minLat)))
		n.stats.Delayed++
	}
	// FIFO per directed link: a message never overtakes an earlier one on
	// the same link, as on an ordered connection. Cross-link reordering is
	// the latency model working as intended.
	if at < st.floor {
		at = st.floor
	}
	st.floor = at
	n.links[key] = st
	n.stats.Delivered++
	n.accept(from, to, msg)
	n.core.scheduleDelivery(at, n, from, to, msg)
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
// it, exactly like the goroutine stack.
func (n *Net) deliver(from, to transport.Addr, msg any) {
	if h, ok := n.boxes[to]; ok {
		h.Deliver(from, msg)
	}
}

// endpoint is one peer's attachment to the event-core network.
type endpoint struct {
	net    *Net
	addr   transport.Addr
	closed bool
}

func (e *endpoint) Addr() transport.Addr { return e.addr }

func (e *endpoint) Send(to transport.Addr, msg any) error {
	if e.closed {
		return transport.ErrClosed
	}
	return e.net.send(e.addr, to, msg)
}

func (e *endpoint) Close() error {
	e.closed = true
	e.net.Kill(e.addr)
	return nil
}

var _ transport.Endpoint = (*endpoint)(nil)
