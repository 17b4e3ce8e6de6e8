package transport

import (
	"io"

	"squid/internal/telemetry"
)

// inprocMetrics are the in-process network's counters.
type inprocMetrics struct {
	sent        *telemetry.Counter
	unreachable *telemetry.Counter
}

// Instrument attaches the network's counters to a registry. Call before
// traffic starts (like SetObserver).
func (n *Inproc) Instrument(reg *telemetry.Registry) {
	m := &inprocMetrics{
		sent: reg.Counter("squid_transport_inproc_sent_total",
			"messages accepted for delivery by the in-process network"),
		unreachable: reg.Counter("squid_transport_inproc_unreachable_total",
			"sends that failed because the destination endpoint was gone"),
	}
	n.mu.Lock()
	n.met = m
	n.mu.Unlock()
}

// faultMetrics mirror a fault plan's FaultStats onto a registry (the stats
// stay authoritative for deterministic experiment accounting; the mirror is
// for scraping).
type faultMetrics struct {
	delivered *telemetry.Counter
	dropped   *telemetry.Counter
	delayed   *telemetry.Counter
	partition *telemetry.Counter
	crash     *telemetry.Counter
}

// Instrument attaches the fault plan's counters to a registry. Call
// before traffic starts.
func (f *Faults) Instrument(reg *telemetry.Registry) {
	events := reg.CounterVec("squid_transport_fault_events_total",
		"injected-fault outcomes per message", "event")
	m := &faultMetrics{
		delivered: events.With("delivered"),
		dropped:   events.With("dropped"),
		delayed:   events.With("delayed"),
		partition: events.With("partition_drop"),
		crash:     events.With("crash_drop"),
	}
	f.mu.Lock()
	f.met = m
	f.mu.Unlock()
}

// tcpMetrics are one TCP endpoint's counters. reg supplies the clock for
// the send-latency histogram.
type tcpMetrics struct {
	reg      *telemetry.Registry
	sent     *telemetry.Counter
	received *telemetry.Counter
	bytes    *telemetry.Counter
	errors   *telemetry.Counter
	latency  *telemetry.Histogram

	// Framing accounting (DESIGN.md §4i): frames, write coalescing, dials
	// and rejected inbound frames.
	frames         *telemetry.Counter
	flushes        *telemetry.Counter
	frameRejected  *telemetry.Counter
	dials          *telemetry.Counter
	dialsCoalesced *telemetry.Counter
}

// tcpLatencyBucketsNS spans 50µs to 2s in roughly 5x steps — LAN writes
// land in the low buckets, timeouts and re-dials in the top ones.
var tcpLatencyBucketsNS = []int64{
	50_000, 250_000, 1_000_000, 5_000_000, 25_000_000,
	100_000_000, 500_000_000, 2_000_000_000,
}

// Instrument attaches the endpoint's counters to a registry. Call before
// traffic starts (immediately after ListenTCP). The registry's injected
// clock times each send, including dial and one re-dial retry.
func (ep *TCPEndpoint) Instrument(reg *telemetry.Registry) {
	// frames_total keeps its codec label, always "binary": readers look the
	// family up as a CounterVec labelled codec, and the registry panics on
	// a lookup whose shape differs from the registration.
	frames := reg.CounterVec("squid_transport_tcp_frames_total",
		"outbound frames by codec", "codec")
	ep.met.Store(&tcpMetrics{
		reg: reg,
		sent: reg.Counter("squid_transport_tcp_sent_total",
			"messages successfully encoded to peers"),
		received: reg.Counter("squid_transport_tcp_received_total",
			"messages decoded from inbound connections"),
		bytes: reg.Counter("squid_transport_tcp_bytes_written_total",
			"bytes written to outbound connections (framed messages)"),
		errors: reg.Counter("squid_transport_tcp_send_errors_total",
			"sends that failed after the re-dial retry"),
		latency: reg.Histogram("squid_transport_tcp_send_latency_ns",
			"wall time per send, dial included", tcpLatencyBucketsNS),
		frames: frames.With("binary"),
		flushes: reg.Counter("squid_transport_tcp_flushes_total",
			"outbound buffer flushes (syscalls); frames_total minus this is the write coalescing win"),
		frameRejected: reg.Counter("squid_transport_frame_rejected_total",
			"inbound frames dropped for oversize, bad preamble or undecodable bytes"),
		dials: reg.Counter("squid_transport_tcp_dials_total",
			"outbound connection dials"),
		dialsCoalesced: reg.Counter("squid_transport_tcp_dials_coalesced_total",
			"sends that joined another sender's in-flight dial instead of dialing"),
	})
}

// countingWriter tallies bytes flowing to an outbound connection.
type countingWriter struct {
	w io.Writer
	c *telemetry.Counter
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	if n > 0 {
		cw.c.Add(uint64(n))
	}
	return n, err
}
