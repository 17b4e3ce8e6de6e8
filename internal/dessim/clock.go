package dessim

import (
	"time"

	"squid/internal/transport"
)

// desEpoch anchors the virtual timeline to a fixed calendar instant for the
// telemetry registry's injected clock. Any nonzero constant works (the
// registry treats the zero time as "clockless"); this one is the opening
// day of HPDC 2003, where the paper was presented.
var desEpoch = time.Date(2003, time.June, 22, 0, 0, 0, 0, time.UTC)

// Clock returns a transport.Clock over the core's virtual timeline. Inject
// it into chord.Config.Clock and squid's Options.Clock so RPC timeouts,
// retry backoff, and recovery deadlines fire as scheduled events instead of
// runtime timers. Handlers fire on the event loop — which in this backend
// is the delivery context itself, so the usual hand-off-via-Invoke contract
// is trivially satisfied.
func (c *Core) Clock() transport.Clock { return virtualClock{c} }

// WallClock returns a time.Time-valued view of virtual time for
// telemetry.NewRegistry: a fixed epoch plus the virtual elapsed time.
// Timestamps in traces and metrics then carry meaningful (and fully
// deterministic) simulated times instead of the clockless registry's zeros.
func (c *Core) WallClock() func() time.Time {
	return func() time.Time { return desEpoch.Add(c.Elapsed()) }
}

// virtualClock is both the Clock and the TimerQueue of the core: a timer is
// a pooled event entry carrying its handler and tag inline, and its handle
// is the entry plus its generation, so arming, stopping and resetting a
// timer allocate nothing.
type virtualClock struct{ core *Core }

//lint:allocfree
func (vc virtualClock) Arm(d time.Duration, h transport.TimerHandler, tag uint64) transport.Timer {
	id, gen := vc.Schedule(d, h, tag)
	return transport.NewTimer(vc, h, tag, id, gen)
}

//lint:allocfree
func (vc virtualClock) Schedule(d time.Duration, h transport.TimerHandler, tag uint64) (uint32, uint32) {
	c := vc.core
	id, gen, ev := c.events.Push(int64(c.now + VTime(max(d, 0))))
	ev.h, ev.tag = h, tag
	return id, gen
}

//lint:allocfree
func (vc virtualClock) Cancel(id, gen uint32) bool { return vc.core.events.Cancel(id, gen) }

var (
	_ transport.Clock      = virtualClock{}
	_ transport.TimerQueue = virtualClock{}
)
