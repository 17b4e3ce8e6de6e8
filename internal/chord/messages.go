package chord

import (
	"fmt"

	"squid/internal/transport"
)

// NodeRef names a ring node: its identifier and transport address. The zero
// value means "unknown".
type NodeRef struct {
	ID   ID
	Addr transport.Addr
}

// IsZero reports whether the reference is unset.
func (r NodeRef) IsZero() bool { return r.Addr == "" }

// String renders the reference as "id@addr".
func (r NodeRef) String() string {
	if r.IsZero() {
		return "<none>"
	}
	return fmt.Sprintf("%x@%s", uint64(r.ID), r.Addr)
}

// Protocol messages. Each has a wire codec (wire.go) so the same protocol
// runs over TCP.
//
// The per-hop kinds — FindMsg, FoundMsg and RouteMsg — travel by pointer
// and are recycled through one pool per kind: a message passed to a send
// is dead to the sender, a forwarding hop re-sends the pointer it
// received, and a terminal handler copies the value out and puts the
// pointer back (transport.MsgPool). Every other kind travels as a value.
var (
	finds  transport.MsgPool[FindMsg]
	founds transport.MsgPool[FoundMsg]
	routes transport.MsgPool[RouteMsg]
)

// FindMsg asks the ring to locate successor(Target). It is routed greedily
// via finger tables until it reaches a node that owns Target or whose
// successor does (the owner's predecessor, as in Chord's find_successor);
// that node replies to ReplyTo with a FoundMsg carrying Token. Hops counts
// sends; Trace tags the originating operation for metrics (0 = untraced).
type FindMsg struct {
	Target  ID
	Token   uint64
	ReplyTo transport.Addr
	Hops    int
	Trace   uint64
}

// FoundMsg answers a FindMsg: Owner is successor(Target) and Pred the
// owner's predecessor, both as the answering node sees them. The answer
// usually comes from that predecessor, and then Pred is the answering node
// itself; an owner that answers for itself names its own predecessor.
// Trace carries the originating FindMsg's trace tag for metrics.
type FoundMsg struct {
	Token uint64
	Owner NodeRef
	Pred  NodeRef
	Hops  int
	Trace uint64
}

// RouteMsg carries an application payload to successor(Key); the owner's
// App.Deliver receives it.
type RouteMsg struct {
	Key     ID
	From    transport.Addr
	Payload any
	Hops    int
	Trace   uint64
}

// JoinReqMsg asks the owner of New.ID to admit New as its predecessor. Hops
// counts forwards when ownership moved mid-join.
type JoinReqMsg struct {
	New  NodeRef
	Hops int
}

// JoinAckMsg admits a joiner: Pred is its new predecessor, Succs its new
// successor list (starting with the admitting node), Items the keys it now
// owns. Deferred marks the corrected three-phase admission: the owner has
// not yet spliced the joiner in, and no items travel with the ack — the
// joiner must confirm liveness with a JoinConfirmMsg, after which ownership
// moves via a HandoffMsg.
type JoinAckMsg struct {
	Pred     NodeRef
	Succs    []NodeRef
	Items    []Item
	Deferred bool
}

// JoinConfirmMsg is phase three of the corrected join: the joiner, now
// listening and linked into the ring as an appendage, asks the owner of its
// identifier to adopt it as predecessor and transfer its arc. Hops bounds
// re-forwarding when ownership moved between ack and confirm.
type JoinConfirmMsg struct {
	New  NodeRef
	Hops int
}

// HandoffMsg transfers ownership of the arc (Pred, receiver's pred] to the
// receiver: Items are the keys now owned by the receiver, Pred the sender's
// view of the arc's lower boundary (used to spill-forward items that belong
// to a predecessor admitted concurrently).
type HandoffMsg struct {
	Pred  NodeRef
	Items []Item
}

// JoinNackMsg refuses a join (identifier collision).
type JoinNackMsg struct {
	Reason string
}

// NotifyMsg tells a node that Candidate believes it is the node's
// predecessor (Chord's stabilization notify).
type NotifyMsg struct {
	Candidate NodeRef
}

// GetStateMsg asks a node for its predecessor and successor list
// (stabilization probe). The reply is a StateMsg with the same Token.
type GetStateMsg struct {
	Token   uint64
	ReplyTo transport.Addr
}

// StateMsg reports a node's neighbor state.
type StateMsg struct {
	Token uint64
	Self  NodeRef
	Pred  NodeRef
	Succs []NodeRef
	Load  int
}

// LeaveMsg announces a voluntary departure to the successor, transferring
// the leaver's items and naming its predecessor so the ring closes.
type LeaveMsg struct {
	Leaving NodeRef
	Pred    NodeRef
	Items   []Item
}

// SuccChangedMsg tells a predecessor that its successor is now NewSucc
// (sent by a leaving node and during joins).
type SuccChangedMsg struct {
	NewSucc NodeRef
}

// AppMsg is the envelope direct sends used to carry.
//
// Deprecated: SendApp sends payloads bare and Node.Deliver hands any type it
// does not know to its App, so nothing sends or unwraps AppMsg. The type and
// its codec remain only for the benchmark's echo probe.
type AppMsg struct {
	From    transport.Addr
	Payload any
}

// invokeMsg injects a closure into the node's delivery goroutine. It never
// crosses the wire: Invoke sends it only to the node's own address, which
// both transports deliver locally.
type invokeMsg struct {
	fn func()
}
