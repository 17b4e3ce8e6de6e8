package dessim

import (
	"time"

	"squid/internal/chord"
	"squid/internal/keyspace"
	"squid/internal/sim"
	"squid/internal/squid"
	"squid/internal/telemetry"
	"squid/internal/transport"
)

// Config describes a simulated network on the event core. It mirrors
// sim.Config so experiments port between drivers by swapping the
// constructor; the transport knobs live in Net (latency and faults are
// native to the event transport rather than a wrapping layer).
type Config struct {
	// Nodes is the initial network size.
	Nodes int
	// Space is the keyword space shared by all peers.
	Space *keyspace.Space
	// Seed drives all randomness (node identifiers, churn targets). The
	// transport's fault/latency lottery is seeded separately via Net.Seed.
	Seed int64
	// SuccListLen is each node's successor-list length (default 4).
	SuccListLen int
	// Engine configures every peer's Squid engine. Sink, Telemetry, Traces,
	// Clock, and Workers are managed by the simulator: engines always run
	// serially (Workers = -1), because a worker pool's goroutines would
	// reintroduce scheduling nondeterminism the event core exists to remove.
	Engine squid.Options
	// Chord tunes every peer's RPC behavior. Space, SuccListLen, Telemetry,
	// and Clock are managed by the simulator and ignored here.
	Chord chord.Config
	// Net tunes the simulated links: latency distribution, drop rate, and
	// the fault lottery's seed. The zero value is instant reliable delivery.
	Net NetConfig
	// Trace enables distributed query tracing into Network.Traces.
	Trace bool
	// CheckInvariants asserts the global ring invariants (chord.CheckRing)
	// after every StabilizeAll round, as on the goroutine driver.
	CheckInvariants bool
}

// ErrIncomplete reports that a query's completion callback had not fired
// when the event queue drained — the query lost its result path (e.g. its
// initiator was killed) and no timer remained to recover it.
var ErrIncomplete = sim.ErrIncomplete

// Network is the sim.Network harness on the discrete-event driver: zero
// goroutines per peer and virtual time. All methods must be called from the
// single simulation goroutine; every harness helper runs the event loop to
// quiescence before it returns.
type Network struct {
	*sim.Network
	// Core is the event loop; its Steps counter is the experiment's work
	// metric and its clock the virtual timeline.
	Core *Core
	// Net is the event-core transport with its native fault injection.
	Net *Net
}

// Build constructs a network of cfg.Nodes peers with uniformly random
// identifiers, installs a consistent ring directly (oracle bootstrap — no
// join messages), and wires metrics. Identifier assignment is
// sim.UniqueIDs, so the same seed yields the same ring as the goroutine
// driver.
func Build(cfg Config) (*Network, error) { return BuildWithIDs(cfg, nil) }

// BuildWithIDs is Build with explicit node identifiers.
func BuildWithIDs(cfg Config, ids []uint64) (*Network, error) {
	core := NewCore()
	nw := &Network{Core: core, Net: NewNet(core, cfg.Net)}
	h, err := sim.BuildOn(sim.Config{
		Nodes:           cfg.Nodes,
		Space:           cfg.Space,
		Seed:            cfg.Seed,
		SuccListLen:     cfg.SuccListLen,
		Engine:          cfg.Engine,
		Chord:           cfg.Chord,
		Trace:           cfg.Trace,
		CheckInvariants: cfg.CheckInvariants,
	}, driver{core: core, net: nw.Net}, telemetry.NewRegistry(core.WallClock()), ids,
		func(h *sim.Network) { nw.Net.SetObserver(h.Metrics.Observe) })
	if err != nil {
		return nil, err
	}
	nw.Network = h
	return nw, nil
}

// Run drains the event heap — the event core's quiesce. Every harness
// helper ends with one, so the network is idle between helper calls.
func (nw *Network) Run() { nw.Core.Run() }

// Schedule runs fn on the event loop after d of virtual time. Use it to
// overlap work before a single Run — e.g. a query storm launching hundreds
// of concurrent queries at staggered virtual instants.
func (nw *Network) Schedule(d time.Duration, fn func()) { nw.Core.After(d, fn) }

// StartQuery launches a query at a future virtual instant without waiting
// for it; cb (which may be nil) receives the result when it completes.
// Pair with Run to drive overlapping query storms.
func (nw *Network) StartQuery(at time.Duration, via int, q keyspace.Query, cb func(squid.Result)) {
	nw.Schedule(at, func() {
		p := nw.Peers[via]
		sim.MustInvoke(p, func() {
			p.Engine.Query(q, func(r squid.Result) {
				if cb != nil {
					cb(r)
				}
			})
		})
	})
}

// driver is the harness's event-core driver: peers attach to Net, engines
// and chord timers run on the virtual clock, and waiting is running the
// event loop dry.
type driver struct {
	core *Core
	net  *Net
}

func (d driver) Listen(addr transport.Addr, h transport.Handler) (transport.Endpoint, error) {
	return d.net.Listen(addr, h)
}

func (d driver) Kill(addr transport.Addr) { d.net.Kill(addr) }

func (d driver) Crashed(addr transport.Addr) bool { return d.net.Crashed(addr) }

// Configure puts every timer on the virtual clock and makes engines serial:
// refinement runs inline on the delivery event, since a worker pool would
// hand jobs to free-running goroutines and break the single-threaded
// determinism contract.
func (d driver) Configure(opts *squid.Options, ccfg *chord.Config) {
	opts.Clock = d.core.Clock()
	opts.Workers = -1
	ccfg.Clock = d.core.Clock()
}

func (d driver) Quiesce() { d.core.Run() }

// Await runs the event loop dry and reports whether done closed on the way;
// an open done means the operation's result path was lost.
func (d driver) Await(done <-chan struct{}) bool {
	d.core.Run()
	select {
	case <-done:
		return true
	default:
		return false
	}
}
