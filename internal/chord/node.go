package chord

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"squid/internal/telemetry"
	"squid/internal/transport"
)

// Config tunes a ring node.
type Config struct {
	// Space is the identifier ring geometry.
	Space Space
	// SuccListLen is the successor-list length kept for fault tolerance
	// (default 4).
	SuccListLen int
	// RPCTimeout bounds how long pending find/state requests wait for a
	// reply before failing (0 disables timeouts; the in-process simulator
	// relies on reliable delivery instead).
	RPCTimeout time.Duration
	// RPCRetries is how many times a failed FindSuccessor or state probe
	// is retried before its error reaches the caller (0 = fail fast).
	// Retries target transient faults: timeouts, unstable-ring lookup
	// failures and unreachable destinations — a stabilization round often
	// repairs the route between attempts.
	RPCRetries int
	// RPCBackoff is the delay before the first retry; each further retry
	// doubles it, with ±50% jitter drawn from a per-node deterministic
	// source. Zero retries immediately.
	RPCBackoff time.Duration
	// Telemetry receives the node's metrics (RPC retries/failures, lookup
	// hops, stabilization activity) as per-node labeled children. Nil gets
	// a private clock-less registry, so instrumentation always has one code
	// path and Node.Counters keeps working standalone.
	Telemetry *telemetry.Registry
	// Clock supplies the node's timers (RPC timeouts, retry backoff). Nil
	// uses the wall clock's deadline heap (transport.RealClock); the
	// discrete-event simulator injects its virtual clock so timeouts and
	// backoff advance in virtual time.
	Clock transport.Clock
	// LegacyRules reverts membership to the original Chord pseudo-code:
	// successors adopted without a reachability probe, predecessors cleared
	// unilaterally when a probe fails, and joins that splice ownership before
	// the joiner confirms it is live. Zave ("How To Make Chord Correct",
	// arXiv:1502.06461) showed these rules break the ring invariants under
	// concurrent churn; the toggle exists only so the regression tests can
	// demonstrate the failures the corrected rules (the default) prevent.
	LegacyRules bool
}

func (c Config) withDefaults() Config {
	if c.SuccListLen <= 0 {
		c.SuccListLen = 4
	}
	if c.Clock == nil {
		c.Clock = transport.RealClock{}
	}
	return c
}

// ErrJoinRefused reports that the ring refused a join (identifier
// collision).
var ErrJoinRefused = errors.New("chord: join refused")

// ErrTimeout reports that an operation's reply did not arrive in time.
var ErrTimeout = errors.New("chord: operation timed out")

// ErrLookupFailed reports that a lookup was dropped by the ring, typically
// because churn left a transient routing loop; retry after stabilization.
var ErrLookupFailed = errors.New("chord: lookup failed (ring unstable)")

// Node is one Chord peer.
//
// Concurrency contract: a Node's state is confined to its delivery
// goroutine. Every method except Self, Invoke and Deliver must be called
// from that goroutine — i.e. from an App upcall, from a callback passed to
// one of the Node's own async methods, or from a closure passed to Invoke.
type Node struct {
	cfg Config
	app App
	ep  transport.Endpoint

	// view is the node's neighbor state: routing decides over it in place
	// (nextHop), and Snapshot copies it for the ring checker.
	view    Snapshot
	fixNext int

	nextToken     uint64
	pendingFinds  map[uint64]findCall
	pendingStates map[uint64]stateCall
	joinDone      func(error)

	// rng drives retry jitter; seeded by the node identifier so backoff
	// schedules are deterministic per node. Confined to the delivery
	// goroutine like the rest of the mutable state.
	rng transport.SplitMix
	ctr nodeMetrics
}

// findCall is one outstanding FindSuccessor attempt, keyed by its token in
// pendingFinds. It carries everything a retry needs, so a retry re-enters
// findOnce from the entry instead of from a continuation closure.
type findCall struct {
	target  ID
	trace   uint64
	attempt int
	join    bool // Join's own lookup: errors go straight to h, never retried
	h       FoundHandler
	timer   transport.Timer
}

// stateCall is one outstanding state probe, keyed by its token in
// pendingStates.
type stateCall struct {
	peer    transport.Addr
	attempt int
	cb      func(StateMsg, error)
	timer   transport.Timer
}

// RPC timeout tags are token<<1 | kind, so one handler serves both tables.
const (
	findRPC  = 0
	stateRPC = 1
)

// rpcTimers is the node's handler for RPC timeouts: a timeout fires
// Fire(token<<1|kind), which hops onto the delivery goroutine before it
// touches the pending tables.
type rpcTimers Node

func (t *rpcTimers) Fire(tag uint64) {
	n := (*Node)(t)
	_ = n.Invoke(func() { n.rpcExpired(tag) }) // endpoint closed: the node is detached, its pending tables die with it
}

// rpcExpired fails the pending RPC a timeout names, if it is still pending.
func (n *Node) rpcExpired(tag uint64) {
	tok := tag >> 1
	if tag&1 == findRPC {
		if c, ok := n.pendingFinds[tok]; ok {
			delete(n.pendingFinds, tok)
			n.findDone(c, FoundMsg{}, ErrTimeout)
		}
		return
	}
	if c, ok := n.pendingStates[tok]; ok {
		delete(n.pendingStates, tok)
		n.stateDone(c, StateMsg{}, ErrTimeout)
	}
}

// armRPC starts the timeout of the RPC with token tok (a zero Timer when
// timeouts are disabled).
func (n *Node) armRPC(tok, kind uint64) transport.Timer {
	if n.cfg.RPCTimeout <= 0 {
		return transport.Timer{}
	}
	return n.cfg.Clock.Arm(n.cfg.RPCTimeout, (*rpcTimers)(n), tok<<1|kind)
}

// NewNode creates a node with the given identifier. app may be nil (NopApp).
func NewNode(cfg Config, id ID, app App) *Node {
	cfg = cfg.withDefaults()
	if app == nil {
		app = NopApp{}
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewRegistry(nil)
	}
	folded := cfg.Space.Fold(uint64(id))
	return &Node{
		cfg:           cfg,
		view:          Snapshot{Self: NodeRef{ID: folded}, Fingers: make([]NodeRef, cfg.Space.Bits)},
		app:           app,
		pendingFinds:  make(map[uint64]findCall),
		pendingStates: make(map[uint64]stateCall),
		rng:           transport.SplitMix(id),
		ctr:           newNodeMetrics(cfg.Telemetry, folded),
	}
}

// Start attaches the node to its endpoint. It must be called before the
// node sends or receives any traffic (Listen on the transport with the node
// as handler, then Start with the returned endpoint).
func (n *Node) Start(ep transport.Endpoint) {
	n.ep = ep
	n.view.Self.Addr = ep.Addr()
}

// Self returns the node's own reference. Safe from any goroutine: the
// reference is immutable after Start.
func (n *Node) Self() NodeRef { return n.view.Self }

// Space returns the ring geometry.
func (n *Node) Space() Space { return n.cfg.Space }

// App returns the application attached to the node.
func (n *Node) App() App { return n.app }

// Invoke schedules fn to run in the node's delivery goroutine. Safe from
// any goroutine; this is how external drivers call the goroutine-confined
// API.
func (n *Node) Invoke(fn func()) error {
	return n.ep.Send(n.view.Self.Addr, invokeMsg{fn: fn})
}

// Deliver implements transport.Handler: it dispatches chord's own messages
// and hands anything else, a peer's SendApp payload, to the App.
func (n *Node) Deliver(from transport.Addr, msg any) {
	switch m := msg.(type) {
	case invokeMsg:
		m.fn()
	case *FindMsg:
		n.handleFind(m)
	case *FoundMsg:
		v := *m
		founds.Put(m)
		n.handleFound(v)
	case *RouteMsg:
		n.handleRoute(m)
	case JoinReqMsg:
		n.handleJoinReq(m)
	case JoinAckMsg:
		n.handleJoinAck(m)
	case JoinNackMsg:
		n.handleJoinNack(m)
	case JoinConfirmMsg:
		n.handleJoinConfirm(m)
	case HandoffMsg:
		n.handleHandoff(m)
	case NotifyMsg:
		n.handleNotify(m)
	case GetStateMsg:
		n.handleGetState(m)
	case StateMsg:
		n.handleState(m)
	case LeaveMsg:
		n.handleLeave(m)
	case SuccChangedMsg:
		n.handleSuccChanged(m)
	default:
		n.app.Deliver(from, n.view.Self.ID, msg)
	}
}

// SendApp sends an application payload directly to the peer at to,
// bypassing ring routing; it arrives at that peer's App.Deliver with this
// node's address as from. The payload travels bare: every transport already
// names the sender. Reports whether the transport accepted the message.
func (n *Node) SendApp(to transport.Addr, payload any) bool {
	return n.send(to, payload)
}

// Running reports whether the node is an active ring member.
func (n *Node) Running() bool { return n.view.Running }

// Pred returns the current predecessor (zero if unknown).
func (n *Node) Pred() NodeRef { return n.view.Pred }

// Succ returns the current immediate successor (self on a singleton ring).
func (n *Node) Succ() NodeRef { return n.view.succ() }

// SuccList returns a copy of the successor list.
func (n *Node) SuccList() []NodeRef { return append([]NodeRef(nil), n.view.Succs...) }

// Fingers returns a copy of the finger table.
func (n *Node) Fingers() []NodeRef { return append([]NodeRef(nil), n.view.Fingers...) }

// Create initializes the node as the first member of a new ring.
func (n *Node) Create() {
	n.setPred(n.view.Self)
	n.view.Succs = []NodeRef{n.view.Self}
	for i := range n.view.Fingers {
		n.view.Fingers[i] = n.view.Self
	}
	n.view.Running = true
}

// InstallRing overwrites the node's neighbor state directly. It is the
// oracle-bootstrap hook used by the simulator to construct large static
// rings without running O(N log^2 N) join messages, exactly as the paper's
// simulator does; the protocol paths (Join/Leave/Stabilize) remain the
// source of truth for dynamic behaviour.
func (n *Node) InstallRing(pred NodeRef, succs, fingers []NodeRef) {
	n.setPred(pred)
	n.view.Succs = append([]NodeRef(nil), succs...)
	if len(n.view.Succs) == 0 {
		n.view.Succs = []NodeRef{n.view.Self}
	}
	copy(n.view.Fingers, fingers)
	for i := range n.view.Fingers {
		if n.view.Fingers[i].IsZero() {
			n.view.Fingers[i] = n.view.Succs[0]
		}
	}
	n.view.Running = true
}

// Owns reports whether this node is the successor of key, i.e. key lies in
// (pred, self].
func (n *Node) Owns(key ID) bool { return n.cfg.Space.InArc(key, n.view.Pred, n.view.Self) }

// setPred updates the predecessor, notifying an ArcWatcher application of
// the ownership change. Any change clears the suspicion flag: the new
// reference has not failed a probe yet.
func (n *Node) setPred(p NodeRef) {
	if n.view.Pred == p {
		return
	}
	old := n.view.Pred
	n.view.Pred = p
	n.view.PredSuspect = false
	if aw, ok := n.app.(ArcWatcher); ok {
		aw.ArcChanged(old, p)
	}
}

// token issues a correlation token for request/reply exchanges.
func (n *Node) token() uint64 {
	n.nextToken++
	return n.nextToken
}

// send transmits msg, reporting whether the destination accepted it.
func (n *Node) send(to transport.Addr, msg any) bool {
	return n.ep.Send(to, msg) == nil
}

// dropDead removes a dead reference from the node's neighbor state. Under
// the corrected rules the predecessor is only marked suspect, never cleared:
// a zero predecessor widens this node's arc over everyone else's, and the
// dead boundary stays valid for ownership until rectify installs a live one.
func (n *Node) dropDead(dead transport.Addr) {
	if n.view.Pred.Addr == dead {
		if n.cfg.LegacyRules {
			n.setPred(NodeRef{})
		} else {
			n.view.PredSuspect = true
		}
	}
	n.view.Succs = slices.DeleteFunc(n.view.Succs, func(s NodeRef) bool { return s.Addr == dead })
	if len(n.view.Succs) == 0 {
		n.view.Succs = []NodeRef{n.view.Self}
	}
	for i, f := range n.view.Fingers {
		if f.Addr == dead {
			n.view.Fingers[i] = n.view.Succs[0]
		}
	}
}

// Route delivers payload to App.Deliver on successor(key). trace tags the
// message for per-operation metrics (0 = untraced).
func (n *Node) Route(key ID, payload any, trace uint64) {
	m := routes.Get()
	*m = RouteMsg{Key: n.cfg.Space.Fold(uint64(key)), From: n.view.Self.Addr, Payload: payload, Trace: trace}
	n.handleRoute(m)
}

// handleRoute owns m: it delivers the payload here, forwards m itself one
// hop on, or drops it.
func (n *Node) handleRoute(m *RouteMsg) {
	kind, next := nextHop(n.cfg.Space, &n.view, m.Key, m.Hops, nil)
	if kind == hopDeliver && !n.view.Running {
		// A node that has left owns nothing: the successor that adopted
		// its arc routes the message on, and over a FIFO link it arrives
		// after the items did.
		m.Hops++
		if n.SendToSucc(m).IsZero() {
			routes.Put(m)
		}
		return
	}
	if kind == hopDeliver {
		from, key, payload := m.From, m.Key, m.Payload
		routes.Put(m)
		n.app.Deliver(from, key, payload)
		return
	}
	if kind == hopOverLimit {
		n.ctr.routeDrops.Inc()
		routes.Put(m)
		return // transient routing loop; drop rather than spin forever
	}
	m.Hops++
	n.ctr.routeForwards.Inc()
	if !n.forward(m.Key, next, m) {
		routes.Put(m)
	}
}

// retryable reports whether a failed RPC is worth repeating: transient
// routing and delivery faults, which stabilization repairs.
func retryable(err error) bool {
	return errors.Is(err, ErrTimeout) || errors.Is(err, ErrLookupFailed) ||
		errors.Is(err, transport.ErrUnreachable)
}

// backoffDelay computes the wait before retry number attempt+1: bounded
// exponential growth from RPCBackoff with ±50% jitter.
func (n *Node) backoffDelay(attempt int) time.Duration {
	if n.cfg.RPCBackoff <= 0 {
		return 0
	}
	if attempt > 16 {
		attempt = 16 // cap the shift; beyond this the ring is gone anyway
	}
	d := n.cfg.RPCBackoff << uint(attempt)
	return time.Duration(float64(d) * (0.5 + n.rng.Float64()))
}

// retryAfter schedules fn in the node's goroutine after the backoff for
// the given attempt. Must be called from the delivery goroutine (it draws
// jitter from the confined rng).
func (n *Node) retryAfter(attempt int, fn func()) {
	d := n.backoffDelay(attempt)
	if d <= 0 {
		fn()
		return
	}
	n.cfg.Clock.Arm(d, transport.TimerFunc(func(uint64) {
		_ = n.Invoke(fn) // endpoint closed: the retry dies with the node
	}), 0)
}

// FoundHandler receives the answer to one FindSuccessor lookup. A caller
// that keeps per-lookup state in a struct can be its own handler, so a
// lookup costs it no callback closure.
type FoundHandler interface {
	Found(m FoundMsg, err error)
}

// FoundFunc adapts a plain function to FoundHandler.
type FoundFunc func(FoundMsg, error)

// Found calls f(m, err).
func (f FoundFunc) Found(m FoundMsg, err error) { f(m, err) }

// FindSuccessor is FindSuccessorTo with a function callback.
func (n *Node) FindSuccessor(target ID, trace uint64, cb func(FoundMsg, error)) {
	n.FindSuccessorTo(target, trace, FoundFunc(cb))
}

// FindSuccessorTo resolves successor(target) and calls h.Found with the
// owner (and the owner's predecessor, which Squid's aggregation
// optimization uses to batch sub-queries). Transient failures (timeout,
// unstable ring, unreachable next hop) are retried up to Config.RPCRetries
// times with jittered exponential backoff before h receives the error.
// When this node or its successor owns target, h.Found runs before
// FindSuccessorTo returns, and no message is sent.
func (n *Node) FindSuccessorTo(target ID, trace uint64, h FoundHandler) {
	n.findOnce(findCall{target: target, trace: trace, h: h})
}

// findOnce performs one FindSuccessor attempt for c.
func (n *Node) findOnce(c findCall) {
	c.target = n.cfg.Space.Fold(uint64(c.target))
	kind, next := nextHop(n.cfg.Space, &n.view, c.target, 0, nil)
	if owner, pred, ok := n.answer(kind, next); ok {
		c.h.Found(FoundMsg{Owner: owner, Pred: pred}, nil)
		return
	}
	tok := n.token()
	c.timer = n.armRPC(tok, findRPC)
	n.pendingFinds[tok] = c
	msg := finds.Get()
	*msg = FindMsg{Target: c.target, Token: tok, ReplyTo: n.view.Self.Addr, Hops: 1, Trace: c.trace}
	if !n.forward(c.target, next, msg) {
		finds.Put(msg)
		delete(n.pendingFinds, tok)
		c.timer.Stop()
		n.findDone(c, FoundMsg{}, ErrTimeout)
	}
}

// findDone completes one attempt of c: success and final failures reach
// the caller, transient ones retry after the backoff.
func (n *Node) findDone(c findCall, m FoundMsg, err error) {
	if err == nil || c.join {
		c.h.Found(m, err)
		return
	}
	if c.attempt >= n.cfg.RPCRetries || !retryable(err) {
		n.ctr.findFailures.Inc()
		c.h.Found(m, err)
		return
	}
	n.ctr.findRetries.Inc()
	c.attempt++
	n.retryAfter(c.attempt-1, func() { n.findOnce(c) })
}

// answer is the owner of a lookup's target and that owner's predecessor,
// when nextHop's verdict at this node settles them: this node owns the
// target, or its successor does (hopLast), and then this node is the
// predecessor that answers for it. Chord's find_successor stops there too.
func (n *Node) answer(kind hopKind, next NodeRef) (owner, pred NodeRef, ok bool) {
	switch kind {
	case hopDeliver:
		return n.view.Self, n.view.Pred, true
	case hopLast:
		return next, n.view.Self, true
	}
	return NodeRef{}, NodeRef{}, false
}

// handleFind owns m: it answers the lookup here or forwards m itself one
// hop on.
func (n *Node) handleFind(m *FindMsg) {
	kind, next := nextHop(n.cfg.Space, &n.view, m.Target, m.Hops, nil)
	if owner, pred, ok := n.answer(kind, next); ok {
		n.sendFound(m.ReplyTo, FoundMsg{Token: m.Token, Owner: owner, Pred: pred, Hops: m.Hops, Trace: m.Trace})
		finds.Put(m)
		return
	}
	if kind == hopOverLimit {
		// Routing loop during churn: fail the lookup so the caller can
		// retry after stabilization repairs the ring.
		n.ctr.findDrops.Inc()
		n.sendFound(m.ReplyTo, FoundMsg{Token: m.Token, Hops: m.Hops, Trace: m.Trace})
		finds.Put(m)
		return
	}
	m.Hops++
	if !n.forward(m.Target, next, m) {
		finds.Put(m)
	}
}

// sendFound sends a lookup's answer in a pooled FoundMsg.
func (n *Node) sendFound(to transport.Addr, v FoundMsg) {
	m := founds.Get()
	*m = v
	if !n.send(to, m) {
		founds.Put(m)
	}
}

func (n *Node) handleFound(m FoundMsg) {
	c, ok := n.pendingFinds[m.Token]
	if !ok {
		return
	}
	delete(n.pendingFinds, m.Token)
	c.timer.Stop()
	if m.Owner.IsZero() {
		n.findDone(c, m, ErrLookupFailed)
		return
	}
	n.ctr.lookupHops.Observe(int64(m.Hops))
	n.findDone(c, m, nil)
}

// GetStateOf asks peer for its neighbor state, retrying transient failures
// per the node's retry policy. Stabilization probes with it, and so do
// drivers and the load-balancing protocols.
func (n *Node) GetStateOf(peer transport.Addr, cb func(StateMsg, error)) {
	n.stateOnce(stateCall{peer: peer, cb: cb})
}

// stateOnce performs one state probe for c.
func (n *Node) stateOnce(c stateCall) {
	tok := n.token()
	c.timer = n.armRPC(tok, stateRPC)
	n.pendingStates[tok] = c
	if !n.send(c.peer, GetStateMsg{Token: tok, ReplyTo: n.view.Self.Addr}) {
		delete(n.pendingStates, tok)
		c.timer.Stop()
		n.stateDone(c, StateMsg{}, transport.ErrUnreachable)
	}
}

// stateDone completes one probe of c, retrying transient failures.
func (n *Node) stateDone(c stateCall, m StateMsg, err error) {
	if err == nil {
		c.cb(m, err)
		return
	}
	if c.attempt >= n.cfg.RPCRetries || !retryable(err) {
		n.ctr.stateFailures.Inc()
		c.cb(m, err)
		return
	}
	n.ctr.stateRetries.Inc()
	c.attempt++
	n.retryAfter(c.attempt-1, func() { n.stateOnce(c) })
}

func (n *Node) handleGetState(m GetStateMsg) {
	n.send(m.ReplyTo, StateMsg{
		Token: m.Token,
		Self:  n.view.Self,
		Pred:  n.view.Pred,
		Succs: n.SuccList(),
		Load:  n.app.Load(),
	})
}

func (n *Node) handleState(m StateMsg) {
	c, ok := n.pendingStates[m.Token]
	if !ok {
		return
	}
	delete(n.pendingStates, m.Token)
	c.timer.Stop()
	n.stateDone(c, m, nil)
}

// trimSuccs bounds a successor list to the configured length, dropping
// zeros and duplicates. Dead and lap-stale entries (including a mid-list
// self-reference, which marks one full loop around the node's view of the
// ring) are kept deliberately: they are tombstones that preserve failover
// depth while healing, dropped lazily by dropDead. The invariant checker
// mirrors this by validating ring order only over live entries up to the
// first self-reference.
func (n *Node) trimSuccs(list []NodeRef) []NodeRef {
	out := make([]NodeRef, 0, n.cfg.SuccListLen)
	seen := map[transport.Addr]bool{}
	for _, s := range list {
		if s.IsZero() || seen[s.Addr] {
			continue
		}
		seen[s.Addr] = true
		out = append(out, s)
		if len(out) == n.cfg.SuccListLen {
			break
		}
	}
	if len(out) == 0 {
		out = append(out, n.view.Self)
	}
	return out
}

func (n *Node) String() string {
	return fmt.Sprintf("chord.Node(%s pred=%s succ=%s)", n.view.Self, n.view.Pred, n.Succ())
}
