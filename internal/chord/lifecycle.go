package chord

import (
	"fmt"
	"time"

	"squid/internal/transport"
)

// Membership follows Zave's corrected Chord rules ("How To Make Chord
// Correct", arXiv:1502.06461) by default:
//
//   - Stabilization adopts a successor candidate only after a reachability
//     probe answers, failing over through the successor list in-round when
//     the current successor is dead.
//   - Notify is the rectify rule: a node never clears its predecessor
//     unilaterally — failed probes mark it suspect, and the next live
//     candidate replaces it, retreating the arc boundary when the candidate
//     sits behind the dead predecessor.
//   - Join is three-phase (request → deferred ack → confirm): the owner
//     changes no state until the joiner, already listening, confirms it is
//     live; only then does ownership splice and the arc's items move via a
//     HandoffMsg.
//
// Config.LegacyRules reverts to the original pseudo-code so the regression
// tests can reproduce the invariant violations the corrections prevent.

// Join makes the node a member of the ring reachable through seed. done is
// called (in the node's goroutine) with nil on success, ErrJoinRefused when
// a member refuses the join (an identifier collision, or no live route to
// the owner), or a transport/timeout error. The join cost is
// O(log N) messages to locate the admission point (paper Section 3.2) plus
// the eager finger-table construction.
func (n *Node) Join(seed transport.Addr, done func(error)) {
	if done == nil {
		done = func(error) {}
	}
	if n.view.Running {
		done(fmt.Errorf("chord: node %s already in a ring", n.view.Self))
		return
	}
	if n.joinDone != nil {
		done(fmt.Errorf("chord: node %s join already in progress", n.view.Self))
		return
	}
	n.joinDone = done
	tok := n.token()
	c := findCall{join: true, h: FoundFunc(func(m FoundMsg, err error) {
		if err != nil {
			n.finishJoin(err)
			return
		}
		if m.Owner.ID == n.view.Self.ID {
			n.finishJoin(fmt.Errorf("%w: identifier %x already taken", ErrJoinRefused, uint64(n.view.Self.ID)))
			return
		}
		// The answering predecessor may still name a dead successor as the
		// owner; then the request goes to that predecessor, whose routing
		// forwards it past dead candidates to the live owner.
		req := JoinReqMsg{New: n.view.Self}
		if !n.send(m.Owner.Addr, req) && (m.Pred.IsZero() || m.Pred.Addr == m.Owner.Addr || !n.send(m.Pred.Addr, req)) {
			n.finishJoin(transport.ErrUnreachable)
		}
	})}
	// The lookup times out like findOnce's, so a FindMsg lost on the way
	// (a seed with no live route forward drops it) ends the join. It is
	// not retried, so its one attempt gets the time a retried lookup has:
	// RPCTimeout for each of 1+RPCRetries attempts. RPCTimeout alone would
	// fail a join whose lookup is slow but live, one crossing ten WAN
	// links for instance.
	if n.cfg.RPCTimeout > 0 {
		c.timer = n.cfg.Clock.Arm(time.Duration(1+n.cfg.RPCRetries)*n.cfg.RPCTimeout, (*rpcTimers)(n), tok<<1|findRPC)
	}
	n.pendingFinds[tok] = c
	m := finds.Get()
	*m = FindMsg{Target: n.view.Self.ID, Token: tok, ReplyTo: n.view.Self.Addr, Hops: 1}
	if !n.send(seed, m) {
		finds.Put(m)
		delete(n.pendingFinds, tok)
		c.timer.Stop()
		n.finishJoin(transport.ErrUnreachable)
	}
}

func (n *Node) finishJoin(err error) {
	if n.joinDone == nil {
		return
	}
	done := n.joinDone
	n.joinDone = nil
	done(err)
}

func (n *Node) handleJoinReq(m JoinReqMsg) {
	if !n.view.Running {
		return
	}
	if m.New.ID == n.view.Self.ID {
		n.send(m.New.Addr, JoinNackMsg{Reason: "identifier collision"})
		return
	}
	if kind, next := nextHop(n.cfg.Space, &n.view, m.New.ID, m.Hops, nil); kind != hopDeliver {
		// Ownership moved (concurrent join); route the request onward to the
		// current owner, bounding detours like any other routed message.
		if kind == hopOverLimit {
			n.ctr.joinDrops.Inc()
			n.send(m.New.Addr, JoinNackMsg{Reason: "ring unstable, retry"})
			return
		}
		m.Hops++
		if !n.forward(m.New.ID, next, m) {
			n.send(m.New.Addr, JoinNackMsg{Reason: "no live route to the owner, retry"})
		}
		return
	}
	if !n.view.Pred.IsZero() && m.New.ID == n.view.Pred.ID && m.New.Addr != n.view.Pred.Addr {
		n.send(m.New.Addr, JoinNackMsg{Reason: "identifier collision with predecessor"})
		return
	}
	if n.cfg.LegacyRules {
		// Original splice-at-admission: ownership and items move before the
		// joiner has proven it is alive. A joiner that vanished between
		// request and admission leaves a dead predecessor holding our items
		// (the regression tests reproduce exactly that).
		oldPred := n.view.Pred
		items := n.app.HandoverOut(oldPred.ID, m.New.ID)
		n.setPred(m.New)
		succs := n.trimSuccs(append([]NodeRef{n.view.Self}, n.view.Succs...))
		if !n.send(m.New.Addr, JoinAckMsg{Pred: oldPred, Succs: succs, Items: items}) {
			// The joiner vanished between request and admission: reclaim.
			n.setPred(oldPred)
			n.app.HandoverIn(items)
			return
		}
		if oldPred.Addr == n.view.Self.Addr {
			// We were a singleton; the joiner is now both pred and succ.
			n.view.Succs = n.trimSuccs([]NodeRef{m.New, n.view.Self})
		} else if !oldPred.IsZero() {
			n.send(oldPred.Addr, SuccChangedMsg{NewSucc: m.New})
		}
		return
	}
	// Corrected admission: answer with our view of the ring but change no
	// state. The joiner links itself in as an appendage and confirms with a
	// JoinConfirmMsg once it is live; ownership moves only then.
	succs := n.trimSuccs(append([]NodeRef{n.view.Self}, n.view.Succs...))
	n.send(m.New.Addr, JoinAckMsg{Pred: n.view.Pred, Succs: succs, Deferred: true})
}

func (n *Node) handleJoinAck(m JoinAckMsg) {
	if n.view.Running || n.joinDone == nil {
		return
	}
	succs := n.trimSuccs(m.Succs)
	if succs[0].Addr == n.view.Self.Addr {
		// trimSuccs filtered every entry and padded with self: the ack named
		// no usable successor. Refuse rather than start a one-node "ring"
		// that shadows the real one (a crafted or truncated ack used to
		// index succs[0] straight into a corrupt state here).
		n.finishJoin(fmt.Errorf("%w: malformed join ack (no usable successor)", ErrJoinRefused))
		return
	}
	if m.Pred.Addr == "" {
		m.Pred = NodeRef{}
	}
	n.setPred(m.Pred)
	n.view.Succs = succs
	for i := range n.view.Fingers {
		n.view.Fingers[i] = n.view.Succs[0]
	}
	n.app.HandoverIn(m.Items)
	n.view.Running = true
	if m.Deferred {
		// Phase three of the corrected join: we are listening and linked in
		// as an appendage; ask the owner to splice us in. Items arrive in
		// the HandoffMsg the owner sends on adoption. If the owner died
		// since acking, any live successor forwards the confirmation to the
		// current owner of our identifier.
		n.SendToSucc(JoinConfirmMsg{New: n.view.Self, Hops: 1})
	}
	// Eagerly resolve the finger table; correctness does not depend on it
	// (stabilization repairs fingers), only routing speed.
	n.RebuildFingers()
	n.finishJoin(nil)
}

func (n *Node) handleJoinNack(m JoinNackMsg) {
	if n.view.Running {
		return
	}
	n.finishJoin(fmt.Errorf("%w: %s", ErrJoinRefused, m.Reason))
}

func (n *Node) handleJoinConfirm(m JoinConfirmMsg) {
	if !n.view.Running || m.New.IsZero() || m.New.Addr == n.view.Self.Addr {
		return
	}
	if kind, next := nextHop(n.cfg.Space, &n.view, m.New.ID, m.Hops, nil); kind != hopDeliver {
		// Ownership moved between ack and confirm (concurrent admission):
		// route the confirmation to the current owner, bounded like any
		// other forwarded message. On overflow the joiner stays an
		// appendage; stabilization's rectify splices it in later.
		if kind == hopOverLimit {
			n.ctr.confirmDrops.Inc()
		}
		m.Hops++
		n.forward(m.New.ID, next, m)
		return
	}
	if m.New.ID == n.view.Self.ID ||
		(!n.view.Pred.IsZero() && m.New.ID == n.view.Pred.ID && m.New.Addr != n.view.Pred.Addr) {
		return // identifier collision surfaced after the ack; refuse
	}
	if n.view.Pred.Addr == m.New.Addr {
		return // already spliced (duplicate confirmation)
	}
	n.adoptPredHandoff(m.New)
}

// adoptPredHandoff installs p as the predecessor. When the arc boundary
// advances (p inside our current arc), ownership of (old, p] transfers to p
// via a HandoffMsg before the splice — if p is unreachable the handoff is
// reclaimed and nothing changes. When the boundary retreats (our
// predecessor died and p closes the ring from further back) no items move:
// our arc only grows. Reports whether p was adopted.
func (n *Node) adoptPredHandoff(p NodeRef) bool {
	if p.IsZero() || p.Addr == n.view.Self.Addr || p.Addr == n.view.Pred.Addr {
		return false
	}
	old := n.view.Pred
	from := old
	if from.IsZero() || from.Addr == n.view.Self.Addr {
		from = n.view.Self
	}
	if !n.cfg.Space.BetweenOpen(p.ID, from.ID, n.view.Self.ID) {
		n.setPred(p)
		return true
	}
	items := n.app.HandoverOut(from.ID, p.ID)
	if !n.send(p.Addr, HandoffMsg{Pred: from, Items: items}) {
		// The candidate vanished between confirmation and splice: reclaim.
		n.app.HandoverIn(items)
		return false
	}
	wasSingleton := n.Succ().Addr == n.view.Self.Addr
	n.setPred(p)
	if wasSingleton {
		// The adopted predecessor is also our only successor.
		n.view.Succs = n.trimSuccs([]NodeRef{p, n.view.Self})
	}
	if !old.IsZero() && old.Addr != n.view.Self.Addr && old.Addr != p.Addr {
		n.send(old.Addr, SuccChangedMsg{NewSucc: p})
	}
	return true
}

func (n *Node) handleHandoff(m HandoffMsg) {
	n.app.HandoverIn(m.Items)
	if m.Pred.IsZero() || m.Pred.Addr == n.view.Self.Addr {
		return
	}
	sp := n.cfg.Space
	if n.view.Pred.IsZero() || n.view.Pred.Addr == n.view.Self.Addr {
		n.setPred(m.Pred)
		return
	}
	if n.view.Pred.Addr == m.Pred.Addr {
		return
	}
	if sp.BetweenOpen(m.Pred.ID, n.view.Pred.ID, n.view.Self.ID) {
		// The sender knew a tighter arc boundary than we do (a predecessor
		// admitted while our ack was in flight): adopt it.
		n.setPred(m.Pred)
		return
	}
	if sp.BetweenOpen(n.view.Pred.ID, m.Pred.ID, n.view.Self.ID) {
		// Our boundary is tighter than the sender knew: the low end of the
		// transferred arc belongs to our predecessor — spill it forward.
		spill := n.app.HandoverOut(m.Pred.ID, n.view.Pred.ID)
		if len(spill) > 0 && !n.send(n.view.Pred.Addr, HandoffMsg{Pred: m.Pred, Items: spill}) {
			n.app.HandoverIn(spill)
		}
	}
}

// RebuildFingers issues FindSuccessor for every finger target and installs
// the answers as they arrive.
func (n *Node) RebuildFingers() {
	for i := 0; i < n.cfg.Space.Bits; i++ {
		i := i
		target := n.cfg.Space.Add(n.view.Self.ID, uint64(1)<<uint(i))
		n.FindSuccessor(target, 0, func(m FoundMsg, err error) {
			if err == nil && !m.Owner.IsZero() {
				n.view.Fingers[i] = m.Owner
			}
		})
	}
}

// Leave removes the node from the ring voluntarily, handing its stored
// items to the first reachable successor-list entry and splicing its
// neighbors together (paper: departure costs O(log N) messages to repair
// affected finger tables, which stabilization performs lazily).
func (n *Node) Leave() {
	if !n.view.Running {
		return
	}
	n.view.Running = false
	if n.Succ().Addr == n.view.Self.Addr {
		return // singleton: nothing to hand over
	}
	items := n.app.HandoverOut(n.view.Pred.ID, n.view.Self.ID)
	adopted := n.SendToSucc(LeaveMsg{Leaving: n.view.Self, Pred: n.view.Pred, Items: items})
	if adopted.IsZero() {
		// No live successor to inherit the arc: keep the items locally
		// rather than dropping them — a restart or manual recovery can
		// still reach them.
		n.app.HandoverIn(items)
		return
	}
	if !n.view.Pred.IsZero() && n.view.Pred.Addr != n.view.Self.Addr {
		n.send(n.view.Pred.Addr, SuccChangedMsg{NewSucc: adopted})
	}
}

// SendToSucc sends msg to the first successor-list entry that takes it,
// and returns that entry (zero if none did). Call it on the delivery
// goroutine.
func (n *Node) SendToSucc(msg any) NodeRef {
	for _, s := range n.view.Succs {
		if !s.IsZero() && s.Addr != n.view.Self.Addr && n.send(s.Addr, msg) {
			return s
		}
	}
	return NodeRef{}
}

func (n *Node) handleLeave(m LeaveMsg) {
	// A leaver that skipped our predecessor (between it and us) could not
	// reach it: pass the arc on to it, or, if it is dead, grow our arc back
	// to the leaver's predecessor.
	p := n.view.Pred
	skipped := !n.cfg.LegacyRules && !p.IsZero() && p.Addr != m.Leaving.Addr &&
		n.cfg.Space.BetweenOpen(p.ID, m.Leaving.ID, n.view.Self.ID)
	if skipped && n.send(p.Addr, m) {
		return
	}
	n.app.HandoverIn(m.Items)
	if skipped || p.Addr == m.Leaving.Addr {
		n.setPred(m.Pred)
	}
	n.dropDead(m.Leaving.Addr)
}

func (n *Node) handleSuccChanged(m SuccChangedMsg) {
	if m.NewSucc.IsZero() {
		return
	}
	if m.NewSucc.Addr == n.view.Self.Addr {
		n.view.Succs = n.trimSuccs([]NodeRef{n.view.Self})
		return
	}
	n.view.Succs = n.trimSuccs(append([]NodeRef{m.NewSucc}, n.view.Succs...))
}

// Stabilize runs one round of stabilization: learn the successor's
// predecessor, adopt it if it sits between, refresh the successor list and
// notify the successor of our existence. Run periodically.
//
// Under the corrected rules the round probes a dead successor away and
// fails over to the next successor-list entry within the same round, and a
// candidate learned from the successor is adopted only after its own
// reachability probe answers (rejections are counted in
// squid_chord_succ_candidates_rejected_total). Under LegacyRules the
// candidate is adopted sight unseen — the Zave paper's counterexamples live
// in exactly that gap.
func (n *Node) Stabilize() {
	if !n.view.Running {
		return
	}
	if n.Succ().Addr == n.view.Self.Addr {
		return
	}
	n.ctr.stabilizeRounds.Inc()
	if n.cfg.LegacyRules {
		n.stabilizeLegacy()
		return
	}
	n.stabilizeStep(0)
}

// stabilizeLegacy is the original rule: trust the successor's reported
// predecessor without probing it.
func (n *Node) stabilizeLegacy() {
	succ := n.Succ()
	n.GetStateOf(succ.Addr, func(st StateMsg, err error) {
		if err != nil {
			n.dropDead(succ.Addr)
			return
		}
		cur := n.Succ()
		if x := st.Pred; !x.IsZero() && x.Addr != n.view.Self.Addr && n.cfg.Space.BetweenOpen(x.ID, n.view.Self.ID, cur.ID) {
			n.view.Succs = n.trimSuccs(append([]NodeRef{x, cur}, st.Succs...))
		} else {
			n.view.Succs = n.trimSuccs(append([]NodeRef{cur}, st.Succs...))
		}
		n.send(n.Succ().Addr, NotifyMsg{Candidate: n.view.Self})
	})
}

// stabilizeStep probes the current successor, failing over through the
// successor list (depth bounds the cascade) when it is dead.
func (n *Node) stabilizeStep(depth int) {
	succ := n.Succ()
	if succ.Addr == n.view.Self.Addr {
		return
	}
	n.GetStateOf(succ.Addr, func(st StateMsg, err error) {
		if err != nil {
			n.dropDead(succ.Addr)
			if depth+1 < n.cfg.SuccListLen {
				n.stabilizeStep(depth + 1)
			}
			return
		}
		// Refresh the successor list from the probed successor, keeping any
		// closer successor installed while the probe was in flight.
		cur := n.Succ()
		base := []NodeRef{cur}
		if cur.Addr != succ.Addr {
			base = append(base, succ)
		}
		n.view.Succs = n.trimSuccs(append(base, st.Succs...))
		cur = n.Succ()
		x := st.Pred
		if x.IsZero() || x.Addr == n.view.Self.Addr || x.Addr == cur.Addr ||
			!n.cfg.Space.BetweenOpen(x.ID, n.view.Self.ID, cur.ID) {
			n.notifySucc()
			return
		}
		// The successor names a closer predecessor: adopt it only once its
		// own probe answers (Zave's correction — the original rule adopts a
		// possibly-dead candidate here and strands the ring).
		n.GetStateOf(x.Addr, func(xst StateMsg, err error) {
			if err != nil {
				n.ctr.succRejects.Inc()
				n.notifySucc()
				return
			}
			if c := n.Succ(); n.cfg.Space.BetweenOpen(x.ID, n.view.Self.ID, c.ID) {
				n.view.Succs = n.trimSuccs(append(append([]NodeRef{x}, xst.Succs...), n.view.Succs...))
			}
			n.notifySucc()
		})
	})
}

func (n *Node) notifySucc() {
	if s := n.Succ(); s.Addr != n.view.Self.Addr {
		n.send(s.Addr, NotifyMsg{Candidate: n.view.Self})
	}
}

// handleNotify is Zave's rectify rule: the candidate replaces the
// predecessor when it tightens the arc, and also when the current
// predecessor is suspect or proven dead — retreating the boundary rather
// than clearing it, because a zero predecessor would claim the entire ring.
// Adoption goes through adoptPredHandoff so any items the candidate now
// owns travel with the splice. Under LegacyRules the original unguarded
// between-check runs instead.
func (n *Node) handleNotify(m NotifyMsg) {
	if !n.view.Running || m.Candidate.Addr == n.view.Self.Addr {
		return
	}
	if n.cfg.LegacyRules {
		if n.view.Pred.IsZero() || n.view.Pred.Addr == n.view.Self.Addr ||
			n.cfg.Space.BetweenOpen(m.Candidate.ID, n.view.Pred.ID, n.view.Self.ID) {
			n.setPred(m.Candidate)
		}
		return
	}
	if m.Candidate.Addr == n.view.Pred.Addr {
		n.view.PredSuspect = false // our predecessor is alive and still claims us
		return
	}
	if m.Candidate.ID == n.view.Self.ID {
		return // identifier collision; refuse
	}
	if n.view.Pred.IsZero() || n.view.Pred.Addr == n.view.Self.Addr || n.view.PredSuspect ||
		n.cfg.Space.BetweenOpen(m.Candidate.ID, n.view.Pred.ID, n.view.Self.ID) {
		n.adoptPredHandoff(m.Candidate)
		return
	}
	// The candidate does not tighten the arc and the predecessor is not
	// under suspicion. Probe the predecessor before deciding: if it is
	// dead, the candidate is a live replacement path (rectify's fallback).
	pred := n.view.Pred
	cand := m.Candidate
	n.GetStateOf(pred.Addr, func(st StateMsg, err error) {
		if n.view.Pred.Addr != pred.Addr {
			return // predecessor changed while probing; decision is stale
		}
		if err != nil {
			n.view.PredSuspect = true
			n.adoptPredHandoff(cand)
			return
		}
		n.view.PredSuspect = false
	})
}

// FixFingers refreshes one finger table entry per call, cycling through the
// table — Chord's periodic finger repair ("each node periodically runs a
// stabilization algorithm where it chooses a random entry in its finger
// table, checks for its state, and updates it", paper Section 3.2).
func (n *Node) FixFingers() {
	if !n.view.Running {
		return
	}
	i := n.fixNext
	n.fixNext = (n.fixNext + 1) % n.cfg.Space.Bits
	n.ctr.fingerFixes.Inc()
	target := n.cfg.Space.Add(n.view.Self.ID, uint64(1)<<uint(i))
	n.FindSuccessor(target, 0, func(m FoundMsg, err error) {
		if err == nil && !m.Owner.IsZero() {
			n.view.Fingers[i] = m.Owner
		}
	})
}

// CheckPredecessor probes the predecessor. Under the corrected rules an
// unreachable predecessor is marked suspect — kept as the arc boundary so
// ownership stays a partition — until rectify installs a live replacement.
// Under LegacyRules it is cleared outright, which momentarily widens this
// node's arc over the whole ring.
func (n *Node) CheckPredecessor() {
	if !n.view.Running || n.view.Pred.IsZero() || n.view.Pred.Addr == n.view.Self.Addr {
		return
	}
	pred := n.view.Pred
	n.GetStateOf(pred.Addr, func(st StateMsg, err error) {
		if n.view.Pred.Addr != pred.Addr {
			return
		}
		if err != nil {
			if n.cfg.LegacyRules {
				n.setPred(NodeRef{})
			} else {
				n.view.PredSuspect = true
			}
			return
		}
		n.view.PredSuspect = false
	})
}
