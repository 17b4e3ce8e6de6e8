// Fixture: a message handed to a send or back to its pool is dead.
package scratchalias

import "transport"

type msg struct {
	Token    uint64
	Clusters []int
}

type node struct{ ep transport.Endpoint }

type pending struct {
	dest transport.Addr
	msg  *msg
}

var msgs transport.MsgPool[msg]

func (n *node) send(to transport.Addr, m any) bool { return n.ep.Send(to, m) == nil }

func handle(*msg) {}

func readAfterSend(n *node, m *msg) uint64 {
	n.send("a", m)
	return m.Token // want `m is dead after send`
}

func sendTwice(n *node, m *msg) {
	n.send("a", m)
	n.send("b", m) // want `m is dead after send`
}

type hop struct{ next transport.Addr }

// forward is chord's routing send: it hands m to the next hop.
func (n *node) forward(h *hop, m any) bool { return n.send(h.next, m) }

func readAfterForward(n *node, h *hop, m *msg) uint64 {
	n.forward(h, m)
	return m.Token // want `m is dead after forward`
}

func handleAfterPut(m *msg) {
	msgs.Put(m)
	handle(m) // want `m is dead after Put`
}

func fieldAfterSend(n *node, p pending) int {
	if n.send(p.dest, p.msg) {
		return len(p.msg.Clusters) // want `p.msg is dead after send`
	}
	return 0
}

// readInFailureBranch is dispatchRound.flush's shape: the send failed, so
// the message never left and the sender still owns it.
func readInFailureBranch(n *node, ps []pending) int {
	k := 0
	for _, p := range ps {
		if !n.send(p.dest, p.msg) {
			k += len(p.msg.Clusters)
			msgs.Put(p.msg)
		}
	}
	return k
}

func readInElse(n *node, m *msg) {
	if n.send("a", m) {
		return
	} else {
		msgs.Put(m)
	}
}

func copyOutThenPut(m *msg) uint64 {
	v := *m
	msgs.Put(m)
	return v.Token
}

func readBeforeSend(n *node, m *msg) uint64 {
	t := m.Token
	n.send("a", m)
	return t
}

func siblingBranch(n *node, m *msg, far bool) {
	if far {
		n.send("a", m)
	} else {
		handle(m)
	}
}

func valueArgument(n *node, v msg) uint64 {
	n.send("a", v)
	return v.Token
}

func deferredPut(m *msg) uint64 {
	defer msgs.Put(m)
	return m.Token
}

// returnAfterPut is handleFind's shape: the branch that recycles the
// message returns, so the code after it never sees the dead message.
func returnAfterPut(n *node, m *msg, owned bool) {
	if owned {
		msgs.Put(m)
		return
	}
	m.Token++
	if !n.send("a", m) {
		msgs.Put(m)
	}
}
