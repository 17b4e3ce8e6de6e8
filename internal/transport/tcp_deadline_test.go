package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"squid/internal/wire"
)

type tcpBlob struct{ B []byte }

func init() {
	wire.Register(20_003, tcpBlob{},
		func(e *wire.Encoder, v any) { e.RawBytes(v.(tcpBlob).B) },
		func(d *wire.Decoder) any { return tcpBlob{B: d.RawBytes()} })
}

// TestTCPWriteDeadline: a peer that completes the handshake but never
// drains its socket must not wedge the sender — once the kernel buffers
// fill, the write deadline fires and Send fails with ErrUnreachable in
// bounded time.
func TestTCPWriteDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				// Read the preamble and the dialer address, ack, then hold
				// the connection open without ever reading again.
				br := bufio.NewReader(conn)
				var pre [len(wirePreamble)]byte
				if _, err := io.ReadFull(br, pre[:]); err != nil {
					return
				}
				n, err := binary.ReadUvarint(br)
				if err != nil {
					return
				}
				if _, err := io.ReadFull(br, make([]byte, n)); err != nil {
					return
				}
				if _, err := conn.Write([]byte{wireAck}); err != nil {
					return
				}
				<-stop
			}()
		}
	}()

	oldWrite := TCPWriteTimeout
	TCPWriteTimeout = 250 * time.Millisecond
	defer func() { TCPWriteTimeout = oldWrite }()

	ep, err := ListenTCP("127.0.0.1:0", &recorder{})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	// Large enough to overrun the socket buffers of both the first write
	// and the retry on a fresh dial.
	payload := tcpBlob{B: make([]byte, 16<<20)}
	start := time.Now()
	err = ep.Send(Addr(ln.Addr().String()), payload)
	if err == nil {
		t.Fatal("send to a non-reading peer succeeded; expected deadline failure")
	}
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("send error = %v, want ErrUnreachable", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("send took %v; write deadline did not bound it", elapsed)
	}
}
