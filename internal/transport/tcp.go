package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"squid/internal/wire"
)

// TCP endpoint I/O bounds. A peer that hangs mid-handshake or stops
// draining its socket must cost a bounded amount of time, not wedge the
// sender: dials and writes that exceed these fail with ErrUnreachable and
// the connection is re-dialed on the next send. Overridable for tests.
var (
	// TCPDialTimeout bounds connection establishment to a peer.
	TCPDialTimeout = 5 * time.Second
	// TCPNegotiateTimeout bounds the preamble/ack handshake on a fresh
	// connection. A peer that closes instead of acking, or answers nothing
	// within this window, fails the dial.
	TCPNegotiateTimeout = 1 * time.Second
	// TCPWriteTimeout bounds each message write on an established
	// connection (0 disables the deadline).
	TCPWriteTimeout = 10 * time.Second
	// MaxInboundFrame bounds one inbound message's wire size. A corrupt or
	// hostile length must fail fast (counted by
	// squid_transport_frame_rejected_total) instead of making the read loop
	// allocate unboundedly.
	MaxInboundFrame = 32 << 20
)

// Connection preamble: dialers lead with {0, 'S', 'Q', 'W', version},
// then the dialer's address, and wait for the one-byte ack before sending
// frames. An inbound connection that opens with anything else is rejected.
// Version 2 frames carry application payloads bare, relying on the
// preamble's address as their sender; version 3 drops the query protocol's
// receipt ack (ClusterQueryMsg lost a byte); version 4 turns
// ClusterQueryMsg's Stream byte into a flags field that may carry a page
// cap (Keep, From), which a version-3 peer would misdecode; version 5
// retires LookupMsg's tag, which an exact query no longer sends (its one
// cell rides a ClusterQueryMsg); version 6 retires PartialResultMsg's tag
// and the flags field's Stream bit, which a version-5 peer would still
// send. See DESIGN.md §4i.
const (
	wireVersion = 0x06
	wireAck     = 0x01
)

var wirePreamble = [5]byte{0x00, 'S', 'Q', 'W', wireVersion}

// maxPreambleAddr bounds the dialer-address string accepted during the
// handshake.
const maxPreambleAddr = 512

// errNoCodec reports a message that wire.EncodeMessage declined: its type,
// or a value nested inside it, has no wire.Register codec.
var errNoCodec = errors.New("transport: no wire codec")

// TCPEndpoint attaches a protocol handler to a real TCP listener. Each
// inbound connection is decoded by its own goroutine, but deliveries are
// serialized through an internal mailbox so the Handler contract (one
// message at a time) holds, matching the in-process transport.
//
// Outbound connections are cached per destination, dialed at most once
// concurrently (a burst of Sends to a fresh peer shares one dial), and
// re-dialed on failure. Writes are coalesced: frames buffer through a
// per-connection bufio.Writer and the last sender out of the write lock
// flushes, so a concurrent dispatch round or stabilization tick costs one
// syscall per destination instead of one per message.
type TCPEndpoint struct {
	addr    Addr
	handler Handler
	ln      net.Listener

	mu      sync.Mutex
	conns   map[Addr]*outConn  //lint:guarded-by mu
	dialing map[Addr]*dialCall //lint:guarded-by mu
	closed  bool               //lint:guarded-by mu

	deliver chan envelope
	done    chan struct{}

	met atomic.Pointer[tcpMetrics]
}

// dialCall is one in-flight dial shared by every concurrent Send to the
// same fresh destination (singleflight).
type dialCall struct {
	done chan struct{}
	oc   *outConn
	err  error
}

// outConn is one cached outbound connection. The mutex serializes frame
// encoding into bw; pending counts senders inside or waiting on that
// lock, and the last one out flushes (group commit).
type outConn struct {
	mu      sync.Mutex
	conn    net.Conn
	bw      *bufio.Writer //lint:guarded-by mu
	pending atomic.Int32

	// wenc is the frame staging buffer.
	wenc wire.Encoder //lint:guarded-by mu
}

// ListenTCP binds to bind (e.g. "127.0.0.1:0") and serves the handler.
// The endpoint's Addr is the listener's concrete address.
func ListenTCP(bind string, h Handler) (*TCPEndpoint, error) {
	if h == nil {
		return nil, fmt.Errorf("transport: nil handler")
	}
	ln, err := net.Listen("tcp", bind)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", bind, err)
	}
	ep := &TCPEndpoint{
		addr:    Addr(ln.Addr().String()),
		handler: h,
		ln:      ln,
		conns:   make(map[Addr]*outConn),
		dialing: make(map[Addr]*dialCall),
		deliver: make(chan envelope, 1024),
		done:    make(chan struct{}),
	}
	go ep.acceptLoop()
	go ep.deliverLoop()
	return ep, nil
}

// Addr returns the bound address ("host:port").
func (ep *TCPEndpoint) Addr() Addr { return ep.addr }

// Send encodes msg to the peer at to, dialing or reusing a cached
// connection. Self-sends bypass the network. A message without a wire
// codec (wire.EncodeMessage declines it) fails with an error and writes
// nothing.
func (ep *TCPEndpoint) Send(to Addr, msg any) error {
	m := ep.met.Load()
	if m == nil {
		return ep.send(to, msg)
	}
	start := m.reg.Now()
	err := ep.send(to, msg)
	m.latency.Observe(int64(m.reg.Since(start)))
	if err != nil {
		m.errors.Inc()
	} else {
		m.sent.Inc()
	}
	return err
}

func (ep *TCPEndpoint) send(to Addr, msg any) error {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return ErrClosed
	}
	ep.mu.Unlock()

	if to == ep.addr {
		select {
		case ep.deliver <- envelope{from: ep.addr, msg: msg}:
			return nil
		case <-ep.done:
			return ErrClosed
		}
	}

	oc, err := ep.connTo(to)
	if err != nil {
		return err
	}
	if err := ep.writeMsg(oc, msg); err != nil {
		if errors.Is(err, errNoCodec) {
			return err // nothing was written; the connection is fine
		}
		// Drop the stale connection and retry once on a fresh dial.
		ep.dropConn(to, oc)
		oc, derr := ep.connTo(to)
		if derr != nil {
			return derr
		}
		if err := ep.writeMsg(oc, msg); err != nil {
			ep.dropConn(to, oc)
			return fmt.Errorf("%w: %v", ErrUnreachable, err)
		}
	}
	return nil
}

// writeMsg frames one message into the connection's write buffer under
// the configured deadline and group-flushes: while other senders are
// queued on the same connection their frames share the flush, so a burst
// to one destination is one syscall, not one per message.
func (ep *TCPEndpoint) writeMsg(oc *outConn, msg any) error {
	oc.pending.Add(1)
	oc.mu.Lock()
	defer oc.mu.Unlock()
	err := ep.appendFrame(oc, msg)
	// Group flush: the last sender out writes the coalesced buffer. A
	// sender that sees pending > 0 may skip the flush — the queued sender
	// it observed is blocked on this mutex and will flush (or pass the
	// duty on) right after.
	if oc.pending.Add(-1) > 0 && err == nil {
		return nil
	}
	if oc.bw.Buffered() > 0 {
		ferr := oc.bw.Flush()
		if m := ep.met.Load(); m != nil {
			m.flushes.Inc()
		}
		if err == nil {
			err = ferr
		}
	}
	return err
}

// appendFrame arms the write deadline (it also covers the flush that
// follows) and appends one length-prefixed frame: wire tag + body. The
// frame is fully staged in memory before any byte reaches the write
// buffer, so a message without a codec (or with an unregistered nested
// payload) fails without leaving a torn frame on the stream. The staged
// path allocates nothing: the encoder's buffer and the header array are
// reused frame over frame.
//
//lint:holds oc.mu
func (ep *TCPEndpoint) appendFrame(oc *outConn, msg any) error {
	if TCPWriteTimeout > 0 {
		if err := oc.conn.SetWriteDeadline(time.Now().Add(TCPWriteTimeout)); err != nil {
			return err
		}
	}
	oc.wenc.Reset()
	if !wire.EncodeMessage(&oc.wenc, msg) {
		return fmt.Errorf("%w: %T", errNoCodec, msg)
	}
	if m := ep.met.Load(); m != nil {
		m.frames.Inc()
	}
	return writeFrame(oc.bw, oc.wenc.Bytes())
}

// writeFrame writes the 4-byte big-endian length header and the body.
func writeFrame(w io.Writer, body []byte) error {
	if len(body) > MaxInboundFrame {
		return fmt.Errorf("transport: outbound frame %d bytes exceeds MaxInboundFrame %d", len(body), MaxInboundFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// connTo returns the cached connection to to, joining an in-flight dial
// or starting one. Concurrent Sends to a fresh peer used to each dial
// and throw away all but one connection; now exactly one dial runs and
// the waiters share its result.
func (ep *TCPEndpoint) connTo(to Addr) (*outConn, error) {
	for {
		ep.mu.Lock()
		if ep.closed {
			ep.mu.Unlock()
			return nil, ErrClosed
		}
		if oc, ok := ep.conns[to]; ok {
			ep.mu.Unlock()
			return oc, nil
		}
		if call, ok := ep.dialing[to]; ok {
			ep.mu.Unlock()
			if m := ep.met.Load(); m != nil {
				m.dialsCoalesced.Inc()
			}
			<-call.done
			if call.err != nil {
				return nil, call.err
			}
			// The dial succeeded but the connection may have been dropped
			// already; loop to re-check the cache.
			ep.mu.Lock()
			oc, ok := ep.conns[to]
			ep.mu.Unlock()
			if ok {
				return oc, nil
			}
			continue
		}
		call := &dialCall{done: make(chan struct{})}
		ep.dialing[to] = call
		ep.mu.Unlock()

		call.oc, call.err = ep.dial(to)

		ep.mu.Lock()
		delete(ep.dialing, to)
		if call.err == nil {
			if ep.closed {
				_ = call.oc.conn.Close() // a racing Close() won; the dial result is discarded anyway
				call.err = ErrClosed
			} else {
				ep.conns[to] = call.oc
			}
		}
		ep.mu.Unlock()
		close(call.done)
		return call.oc, call.err
	}
}

// dial establishes one outbound connection and runs the handshake. Any
// failure — refused, reset, closed on the preamble, silent past
// TCPNegotiateTimeout, a wrong ack — fails with ErrUnreachable.
func (ep *TCPEndpoint) dial(to Addr) (*outConn, error) {
	m := ep.met.Load()
	if m != nil {
		m.dials.Inc()
	}
	conn, err := net.DialTimeout("tcp", string(to), TCPDialTimeout)
	if err != nil {
		return nil, fmt.Errorf("%w: dial %s: %v", ErrUnreachable, to, err)
	}
	if err := ep.handshake(conn); err != nil {
		_ = conn.Close() // the dial is already failing; the close error adds nothing
		return nil, fmt.Errorf("%w: handshake %s: %v", ErrUnreachable, to, err)
	}
	var w io.Writer = conn
	if m != nil {
		w = &countingWriter{w: conn, c: m.bytes}
	}
	return &outConn{conn: conn, bw: bufio.NewWriter(w)}, nil
}

// handshake runs the dialer side of the connection handshake: preamble +
// self-address out, one ack byte back, all under TCPNegotiateTimeout.
func (ep *TCPEndpoint) handshake(conn net.Conn) error {
	if err := conn.SetDeadline(time.Now().Add(TCPNegotiateTimeout)); err != nil {
		return err
	}
	var e wire.Encoder
	e.String(string(ep.addr))
	if _, err := conn.Write(wirePreamble[:]); err != nil {
		return err
	}
	if _, err := conn.Write(e.Bytes()); err != nil {
		return err
	}
	var ack [1]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		return err
	}
	if ack[0] != wireAck {
		return fmt.Errorf("bad ack %#x", ack[0])
	}
	return conn.SetDeadline(time.Time{})
}

func (ep *TCPEndpoint) dropConn(to Addr, oc *outConn) {
	ep.mu.Lock()
	if ep.conns[to] == oc {
		delete(ep.conns, to)
	}
	ep.mu.Unlock()
	_ = oc.conn.Close() // the conn is already broken; its close error is uninformative
}

// Close shuts the listener, cached connections and the delivery loop.
func (ep *TCPEndpoint) Close() error {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return nil
	}
	ep.closed = true
	conns := ep.conns
	ep.conns = map[Addr]*outConn{}
	ep.mu.Unlock()

	close(ep.done)
	err := ep.ln.Close()
	for _, oc := range conns {
		_ = oc.conn.Close() // shutdown path: the listener close error is the one reported
	}
	return err
}

func (ep *TCPEndpoint) acceptLoop() {
	for {
		conn, err := ep.ln.Accept()
		if err != nil {
			return
		}
		go ep.readLoop(conn)
	}
}

// rejectFrame counts one inbound-frame rejection.
func (ep *TCPEndpoint) rejectFrame() {
	if m := ep.met.Load(); m != nil {
		m.frameRejected.Inc()
	}
}

// readLoop serves one inbound connection: it validates the preamble,
// acks, then decodes length-prefixed frames. A connection that opens with
// anything but the preamble, and any oversized, truncated or undecodable
// frame, is counted and closed — a corrupt stream has no recoverable
// framing. A connection that closes before its first byte (a liveness
// probe) is not counted.
func (ep *TCPEndpoint) readLoop(conn net.Conn) {
	defer func() {
		_ = conn.Close() // inbound loop exit: the decode error, if any, was already counted
	}()
	br := bufio.NewReader(conn)
	var pre [5]byte
	if _, err := io.ReadFull(br, pre[:]); err != nil || pre != wirePreamble {
		if err != io.EOF {
			ep.rejectFrame()
		}
		return
	}
	// Dialer address, bounded: sent once per connection instead of per
	// frame.
	var lenBuf [binary.MaxVarintLen64]byte
	n := 0
	for {
		b, err := br.ReadByte()
		if err != nil || n == len(lenBuf) {
			ep.rejectFrame()
			return
		}
		lenBuf[n] = b
		n++
		if b < 0x80 {
			break
		}
	}
	addrLen, k := binary.Uvarint(lenBuf[:n])
	if k <= 0 || addrLen > maxPreambleAddr {
		ep.rejectFrame()
		return
	}
	addrBytes := make([]byte, addrLen)
	if _, err := io.ReadFull(br, addrBytes); err != nil {
		ep.rejectFrame()
		return
	}
	from := Addr(addrBytes)
	if _, err := conn.Write([]byte{wireAck}); err != nil {
		return
	}

	// body and dec are reused frame after frame: decoded values never
	// alias body (wire.Decoder copies every string it returns), so the
	// next frame may overwrite it.
	var body []byte
	var dec wire.Decoder
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		n := int(binary.BigEndian.Uint32(hdr[:]))
		if n == 0 || n > MaxInboundFrame {
			ep.rejectFrame()
			return
		}
		if cap(body) < n {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(br, body); err != nil {
			return
		}
		msg, err := dec.Message(body)
		if err != nil {
			ep.rejectFrame()
			return
		}
		if m := ep.met.Load(); m != nil {
			m.received.Inc()
		}
		select {
		case ep.deliver <- envelope{from: from, msg: msg}:
		case <-ep.done:
			return
		}
	}
}

func (ep *TCPEndpoint) deliverLoop() {
	for {
		select {
		case env := <-ep.deliver:
			ep.handler.Deliver(env.from, env.msg)
		case <-ep.done:
			return
		}
	}
}

var _ Endpoint = (*TCPEndpoint)(nil)
