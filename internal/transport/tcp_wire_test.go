package transport

import (
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"squid/internal/telemetry"
	"squid/internal/wire"
)

// wireTestMsg has a wire codec; wireNoCodecMsg has none, so TCP refuses
// to send it. Tags sit far above the protocol ranges.
type wireTestMsg struct {
	N uint64
	S string
}

type wireNoCodecMsg struct{ S string }

func init() {
	wire.Register(20_001, wireTestMsg{},
		func(e *wire.Encoder, v any) {
			m := v.(wireTestMsg)
			e.Uvarint(m.N)
			e.String(m.S)
		},
		func(d *wire.Decoder) any {
			var m wireTestMsg
			m.N = d.Uvarint()
			m.S = d.String()
			return m
		})
}

// wirePair builds two instrumented endpooints and returns them plus their
// metrics for counter assertions.
func wirePair(t *testing.T) (a, b *TCPEndpoint, ra, rb *recorder, ma, mb *tcpMetrics) {
	t.Helper()
	ra, rb = &recorder{}, &recorder{}
	a, err := ListenTCP("127.0.0.1:0", ra)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err = ListenTCP("127.0.0.1:0", rb)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	a.Instrument(telemetry.NewRegistry(time.Now))
	b.Instrument(telemetry.NewRegistry(time.Now))
	return a, b, ra, rb, a.met.Load(), b.met.Load()
}

func waitMsgs(t *testing.T, r *recorder, n int) []string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if got := r.snapshot(); len(got) >= n {
			return got
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d messages; have %v", n, r.snapshot())
	return nil
}

func waitCounter(t *testing.T, c *telemetry.Counter, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if c.Value() >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("counter stuck at %d, want >= %d", c.Value(), want)
}

// TestTCPBinaryNegotiation: two endpoints complete the preamble handshake
// and messages travel as binary frames, one per Send, on one dial.
func TestTCPBinaryNegotiation(t *testing.T) {
	a, b, _, rb, ma, _ := wirePair(t)
	for i := 0; i < 3; i++ {
		if err := a.Send(b.Addr(), wireTestMsg{N: uint64(i), S: "bin"}); err != nil {
			t.Fatal(err)
		}
	}
	got := waitMsgs(t, rb, 3)
	if want := string(a.Addr()) + ":{0 bin}"; got[0] != want {
		t.Errorf("first delivery = %q, want %q", got[0], want)
	}
	if n := ma.frames.Value(); n != 3 {
		t.Errorf("binary frames = %d, want 3", n)
	}
	if n := ma.dials.Value(); n != 1 {
		t.Errorf("dials = %d, want 1", n)
	}
}

// TestTCPNoCodecSendFails: a message type without a wire codec fails
// Send with an error, puts no frame or byte on the connection, and leaves
// the connection usable for the next message.
func TestTCPNoCodecSendFails(t *testing.T) {
	a, b, _, rb, ma, _ := wirePair(t)
	if err := a.Send(b.Addr(), wireTestMsg{N: 1, S: "prime"}); err != nil {
		t.Fatal(err)
	}
	waitMsgs(t, rb, 1)
	frames, bytes := ma.frames.Value(), ma.bytes.Value()

	err := a.Send(b.Addr(), wireNoCodecMsg{S: "no codec"})
	if !errors.Is(err, errNoCodec) {
		t.Fatalf("send of a codec-less type: err = %v, want errNoCodec", err)
	}
	if n := ma.frames.Value(); n != frames {
		t.Errorf("frames = %d after the failed send, want %d", n, frames)
	}
	if n := ma.bytes.Value(); n != bytes {
		t.Errorf("bytes written = %d after the failed send, want %d", n, bytes)
	}

	if err := a.Send(b.Addr(), wireTestMsg{N: 2, S: "after"}); err != nil {
		t.Fatal(err)
	}
	if got := waitMsgs(t, rb, 2); len(got) != 2 {
		t.Errorf("deliveries = %v, want the two codec messages only", got)
	}
	if n := ma.dials.Value(); n != 1 {
		t.Errorf("dials = %d, want 1: the failed send must not drop the connection", n)
	}
}

// TestTCPPreambleRejectedUnreachable: a peer that closes the connection on
// the preamble (as a build without this handshake would) fails Send with
// ErrUnreachable after exactly one dial — there is no other format to
// retry in.
func TestTCPPreambleRejectedUnreachable(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var accepted atomic.Int32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			var pre [len(wirePreamble)]byte
			_, _ = io.ReadFull(conn, pre[:]) // whatever arrives, the answer is a close
			conn.Close()
		}
	}()

	ep, err := ListenTCP("127.0.0.1:0", &recorder{})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	ep.Instrument(telemetry.NewRegistry(time.Now))
	m := ep.met.Load()

	err = ep.Send(Addr(ln.Addr().String()), wireTestMsg{N: 1, S: "x"})
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("send to a preamble-rejecting peer: err = %v, want ErrUnreachable", err)
	}
	if n := m.dials.Value(); n != 1 {
		t.Errorf("dials = %d, want 1 (no re-dial)", n)
	}
	if n := accepted.Load(); n != 1 {
		t.Errorf("peer accepted %d connections, want 1", n)
	}
	if n := m.frames.Value(); n != 0 {
		t.Errorf("frames = %d, want 0", n)
	}
}

// rawHandshake dials to and completes the preamble handshake by hand,
// returning the open connection ready for frames.
func rawHandshake(t *testing.T, to Addr) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", string(to))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	var e wire.Encoder
	e.String("1.2.3.4:5")
	if _, err := conn.Write(wirePreamble[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(e.Bytes()); err != nil {
		t.Fatal(err)
	}
	var ack [1]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil || ack[0] != wireAck {
		t.Fatalf("handshake ack: %v %v", ack, err)
	}
	return conn
}

// TestTCPFrameRejectedOversize: a frame header claiming more than
// MaxInboundFrame must kill the connection with a counted rejection and
// no allocation attempt.
func TestTCPFrameRejectedOversize(t *testing.T) {
	r := &recorder{}
	ep, err := ListenTCP("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	ep.Instrument(telemetry.NewRegistry(time.Now))
	m := ep.met.Load()

	conn := rawHandshake(t, ep.Addr())
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(MaxInboundFrame+1))
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, m.frameRejected, 1)
	// The endpoint must have hung up rather than waiting for the body.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(hdr[:]); err == nil {
		t.Error("connection still open after oversize frame")
	}
	if got := r.snapshot(); len(got) != 0 {
		t.Errorf("hostile frame delivered messages: %v", got)
	}
}

// TestTCPFrameRejectedCorrupt: bad preamble magic and undecodable frame
// bodies are both counted and fatal to their connection.
func TestTCPFrameRejectedCorrupt(t *testing.T) {
	r := &recorder{}
	ep, err := ListenTCP("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	ep.Instrument(telemetry.NewRegistry(time.Now))
	m := ep.met.Load()

	// Right lead byte, garbage magic.
	conn, err := net.Dial("tcp", string(ep.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte{0x00, 'X', 'X', 'X', 0x01})
	waitCounter(t, m.frameRejected, 1)
	conn.Close()

	// Valid handshake, then a frame whose body decodes to nothing: an
	// unknown wire tag.
	conn2 := rawHandshake(t, ep.Addr())
	var e wire.Encoder
	e.Uvarint(9_999_999)
	body := e.Bytes()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	conn2.Write(hdr[:])
	conn2.Write(body)
	waitCounter(t, m.frameRejected, 2)
	if got := r.snapshot(); len(got) != 0 {
		t.Errorf("corrupt frames delivered messages: %v", got)
	}
}

// TestTCPPreambleOldVersionRejected: a dialer with the right magic but
// version 1 — a build whose frames wrapped every direct payload in an
// envelope — is refused at the handshake: counted, never acked, and
// nothing it sends is delivered.
func TestTCPPreambleOldVersionRejected(t *testing.T) {
	r := &recorder{}
	ep, err := ListenTCP("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	ep.Instrument(telemetry.NewRegistry(time.Now))
	m := ep.met.Load()

	conn, err := net.Dial("tcp", string(ep.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var e wire.Encoder
	e.String("1.2.3.4:5")
	frame := append([]byte{0x00, 'S', 'Q', 'W', 0x01}, e.Bytes()...)
	e.Reset()
	wire.EncodeMessage(&e, wireTestMsg{N: 1, S: "v1"})
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(e.Len()))
	frame = append(append(frame, hdr[:]...), e.Bytes()...)
	_, _ = conn.Write(frame) // the endpoint may hang up mid-write
	waitCounter(t, m.frameRejected, 1)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var ack [1]byte
	if n, err := conn.Read(ack[:]); err == nil {
		t.Errorf("old-version dialer got %d byte(s) back (%#x), want a hang-up", n, ack[0])
	}
	if got := r.snapshot(); len(got) != 0 {
		t.Errorf("old-version connection delivered messages: %v", got)
	}
}

// TestTCPGobStreamRejected: an inbound connection that opens with anything
// but the preamble — here a gob stream, whose first byte is non-zero — is
// counted, closed, and delivers nothing.
func TestTCPGobStreamRejected(t *testing.T) {
	r := &recorder{}
	ep, err := ListenTCP("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	ep.Instrument(telemetry.NewRegistry(time.Now))
	m := ep.met.Load()

	conn, err := net.Dial("tcp", string(ep.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	env := struct {
		From    string
		Payload wireTestMsg
	}{From: "x", Payload: wireTestMsg{N: 1, S: "gob"}}
	// gob writes the type description and the value separately; the
	// endpoint may hang up after the first, failing the second write.
	_ = gob.NewEncoder(conn).Encode(env)
	waitCounter(t, m.frameRejected, 1)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var b [1]byte
	if _, err := conn.Read(b[:]); err == nil {
		t.Error("connection still open after a gob stream")
	}
	if got := r.snapshot(); len(got) != 0 {
		t.Errorf("gob stream delivered messages: %v", got)
	}
}

// TestTCPDialSingleflight: a burst of first sends to a fresh peer shares
// one dial instead of racing N connections.
func TestTCPDialSingleflight(t *testing.T) {
	a, b, _, rb, ma, _ := wirePair(t)
	const burst = 16
	var wg sync.WaitGroup
	errs := make([]error, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = a.Send(b.Addr(), wireTestMsg{N: uint64(i), S: "sf"})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	waitMsgs(t, rb, burst)
	if n := ma.dials.Value(); n != 1 {
		t.Errorf("dials = %d, want 1 (singleflight)", n)
	}
}

// TestTCPWriteCoalescing: senders queued behind the connection's write
// lock share one flush — the group-commit syscall saving. The test parks
// a burst of senders on the lock, releases them together, and checks the
// whole burst cost exactly one flush.
func TestTCPWriteCoalescing(t *testing.T) {
	a, b, _, rb, ma, _ := wirePair(t)
	// Prime the connection.
	if err := a.Send(b.Addr(), wireTestMsg{N: 0, S: "prime"}); err != nil {
		t.Fatal(err)
	}
	waitMsgs(t, rb, 1)
	a.mu.Lock()
	oc := a.conns[b.Addr()]
	a.mu.Unlock()
	if oc == nil {
		t.Fatal("no cached connection after send")
	}

	flushesBefore := ma.flushes.Value()
	const burst = 8
	oc.mu.Lock()
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a.Send(b.Addr(), wireTestMsg{N: uint64(i), S: "burst"})
		}(i)
	}
	// Wait until every sender is parked on the write lock.
	deadline := time.Now().Add(5 * time.Second)
	for oc.pending.Load() < burst {
		if time.Now().After(deadline) {
			oc.mu.Unlock()
			t.Fatalf("only %d/%d senders queued", oc.pending.Load(), burst)
		}
		time.Sleep(time.Millisecond)
	}
	oc.mu.Unlock()
	wg.Wait()
	waitMsgs(t, rb, 1+burst)
	if n := ma.flushes.Value() - flushesBefore; n != 1 {
		t.Errorf("burst of %d sends cost %d flushes, want 1 (group commit)", burst, n)
	}
	if n := ma.frames.Value(); n != 1+burst {
		t.Errorf("binary frames = %d, want %d", n, 1+burst)
	}
}
