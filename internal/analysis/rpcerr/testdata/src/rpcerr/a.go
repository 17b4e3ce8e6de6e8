// Fixture: errors on the transport/chord RPC path must be checked or
// discarded with a stated reason.
package rpcerr

import (
	"chord"
	"transport"
)

func drops(ep transport.Endpoint, to transport.Addr) {
	ep.Send(to, "hi")     // want `dropped`
	_ = ep.Send(to, "hi") // want `discarded without a reason`
	_ = ep.Send(to, "hi") // best effort: the probe retries next tick
	defer ep.Close()      // want `defer`
	go retry(ep, to)
}

func spawn(ep transport.Endpoint, to transport.Addr) {
	go ep.Send(to, "x") // want `unobservable`
}

func retry(ep transport.Endpoint, to transport.Addr) {
	if err := ep.Send(to, "again"); err != nil {
		_ = err // handled upstream: the retry loop observes the counter
	}
}

func space() chord.Space {
	sp, _ := chord.NewSpace(16) // want `discarded without a reason`
	return sp
}

func spaceChecked() (chord.Space, error) {
	return chord.NewSpace(16)
}

func spaceReasoned() chord.Space {
	sp, _ := chord.NewSpace(16) // 16 is a compile-time constant in range
	return sp
}

func allowedStmt(ep transport.Endpoint, to transport.Addr) {
	//lint:allow-rpcerr fire-and-forget gossip, loss tolerated by design
	ep.Send(to, "gossip")
}
