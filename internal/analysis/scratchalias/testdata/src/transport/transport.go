// Package transport is the fixture twin of squid/internal/transport's
// send and message-pool API. The analyzer matches the package by the last
// element of its path.
package transport

// Addr is a transport address.
type Addr string

// Endpoint is a transport endpoint.
type Endpoint interface {
	Send(to Addr, msg any) error
}

// MsgPool recycles messages of one kind.
type MsgPool[T any] struct{ free []*T }

// Get returns a zeroed message.
func (p *MsgPool[T]) Get() *T { return new(T) }

// Put recycles m; m is dead to the caller.
func (p *MsgPool[T]) Put(m *T) { p.free = append(p.free, m) }
