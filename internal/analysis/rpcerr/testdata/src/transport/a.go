// Fixture: inside a transport package, net and io error returns join the
// RPC contract — the handshake (preamble write, ack read) must never drop
// one.
package transport

import "io"

func handshake(rw io.ReadWriter, preamble []byte) bool {
	rw.Write(preamble) // want `dropped`
	var ack [4]byte
	io.ReadFull(rw, ack[:])        // want `dropped`
	_, _ = io.ReadFull(rw, ack[:]) // want `discarded without a reason`
	_, _ = io.ReadFull(rw, ack[:]) // peer may close mid-handshake; a zero ack fails the check below
	if _, err := io.ReadFull(rw, ack[:]); err != nil {
		return false
	}
	return ack[0] == 1
}
