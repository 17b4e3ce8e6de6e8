// Package transport abstracts message passing between peers so the same
// protocol code drives both the in-process simulator (goroutine mailboxes,
// the substrate for reproducing the paper's experiments) and real TCP
// deployments.
//
// The contract is asynchronous, at-most-once, FIFO-per-receiver delivery of
// message values. The in-process transport passes any value; TCP carries
// only types with a wire.Register codec. Handlers run one message at a time
// per endpoint, so protocol state needs no locking as long as it is touched
// only from the handler goroutine; use Endpoint.Send to the endpoint's own
// address to inject work into that goroutine from outside.
package transport

import "errors"

// Addr is an opaque peer address: a symbolic name in the in-process network,
// "host:port" over TCP.
type Addr string

// Handler consumes messages delivered to an endpoint. Deliver is called
// sequentially (never concurrently) for a given endpoint.
type Handler interface {
	Deliver(from Addr, msg any)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(from Addr, msg any)

// Deliver calls f.
func (f HandlerFunc) Deliver(from Addr, msg any) { f(from, msg) }

// Endpoint is a peer's attachment to a network.
type Endpoint interface {
	// Addr returns the endpoint's own address.
	Addr() Addr
	// Send enqueues msg for delivery to the peer at to. Sending to the
	// endpoint's own address delivers locally. Send never blocks on the
	// receiver's processing. A message sent by pointer is the receiver's
	// once Send succeeds (see MsgPool); on failure it stays the caller's.
	Send(to Addr, msg any) error
	// Close detaches the endpoint; subsequent sends to it fail with
	// ErrUnreachable.
	Close() error
}

// ErrUnreachable reports that the destination is not attached to the
// network (dead, closed, or never existed).
var ErrUnreachable = errors.New("transport: destination unreachable")

// ErrClosed reports that the sending endpoint itself has been closed.
var ErrClosed = errors.New("transport: endpoint closed")
