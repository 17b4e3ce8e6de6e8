package dessim

import (
	"time"

	"squid/internal/chord"
	"squid/internal/sim"
	"squid/internal/squid"
	"squid/internal/telemetry"
	"squid/internal/transport"
)

// Config describes a simulated network; it is sim.Config, so a test moves
// between the drivers by swapping its constructor.
type Config = sim.Config

// Network is the sim.Network harness on the discrete-event driver: zero
// goroutines per peer and virtual time. All methods must be called from the
// single simulation goroutine; every harness helper runs the event loop to
// quiescence before it returns.
type Network struct {
	*sim.Network
	// Core is the event loop; its Steps counter is the experiment's work
	// metric and its clock the virtual timeline.
	Core *Core
	// Net is the event-core transport; its fault plan is also the
	// harness's Faults.
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
	h, err := sim.BuildOn(cfg, driver{core: core, net: nw.Net}, telemetry.NewRegistry(core.WallClock()), ids,
		func(h *sim.Network) {
			h.Faults = nw.Net.Faults
			nw.Net.SetObserver(h.Metrics.Observe)
		})
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
