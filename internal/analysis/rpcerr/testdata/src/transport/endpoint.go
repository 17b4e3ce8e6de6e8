package transport

// Addr is a transport address (fixture twin of squid/internal/transport's).
type Addr string

// Endpoint is a transport endpoint (fixture twin of
// squid/internal/transport's).
type Endpoint interface {
	Addr() Addr
	Send(to Addr, msg any) error
	Close() error
}
