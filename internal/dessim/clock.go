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
// runtime timers. Callbacks run on the event loop — which in this backend
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

type virtualClock struct{ core *Core }

func (vc virtualClock) AfterFunc(d time.Duration, fn func()) transport.Timer {
	t := &virtualTimer{core: vc.core, fn: fn}
	t.id, t.gen = vc.core.schedule(vc.core.deadline(d), fn)
	return t
}

var _ transport.Clock = virtualClock{}

// virtualTimer adapts a scheduled event to the transport.Timer surface.
// Stop and Reset report whether the timer was still pending, matching the
// time package's semantics. The generation pins the handle to this timer's
// occupancy of the pooled slab entry: once the event fires or is cancelled
// the entry may be reused, and a stale Stop must not touch its new owner.
type virtualTimer struct {
	core *Core
	id   uint32
	gen  uint32
	fn   func()
}

func (t *virtualTimer) Stop() bool { return t.core.cancel(t.id, t.gen) }

func (t *virtualTimer) Reset(d time.Duration) bool {
	was := t.core.cancel(t.id, t.gen)
	t.id, t.gen = t.core.schedule(t.core.deadline(d), t.fn)
	return was
}
