package chord

import (
	"fmt"

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
// called (in the node's goroutine) with nil on success, ErrJoinRefused on an
// identifier collision, or a transport/timeout error. The join cost is
// O(log N) messages to locate the admission point (paper Section 3.2) plus
// the eager finger-table construction.
func (n *Node) Join(seed transport.Addr, done func(error)) {
	if done == nil {
		done = func(error) {}
	}
	if n.running {
		done(fmt.Errorf("chord: node %s already in a ring", n.self))
		return
	}
	if n.joinDone != nil {
		done(fmt.Errorf("chord: node %s join already in progress", n.self))
		return
	}
	n.joinDone = done
	tok := n.token()
	n.pendingFinds[tok] = findCall{join: true, h: FoundFunc(func(m FoundMsg, err error) {
		if err != nil {
			n.finishJoin(err)
			return
		}
		if m.Owner.ID == n.self.ID {
			n.finishJoin(fmt.Errorf("%w: identifier %x already taken", ErrJoinRefused, uint64(n.self.ID)))
			return
		}
		if !n.send(m.Owner.Addr, JoinReqMsg{New: n.self}) {
			n.finishJoin(transport.ErrUnreachable)
		}
	})}
	m := finds.Get()
	*m = FindMsg{Target: n.self.ID, Token: tok, ReplyTo: n.self.Addr, Hops: 1}
	if !n.send(seed, m) {
		finds.Put(m)
		delete(n.pendingFinds, tok)
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
	if !n.running {
		return
	}
	if m.New.ID == n.self.ID {
		n.send(m.New.Addr, JoinNackMsg{Reason: "identifier collision"})
		return
	}
	if !n.Owns(m.New.ID) {
		// Ownership moved (concurrent join); route the request onward to the
		// current owner, bounding detours like any other routed message.
		if m.Hops >= n.maxHops() {
			n.send(m.New.Addr, JoinNackMsg{Reason: "ring unstable, retry"})
			return
		}
		m.Hops++
		n.forwardToward(m.New.ID, m)
		return
	}
	if !n.pred.IsZero() && m.New.ID == n.pred.ID && m.New.Addr != n.pred.Addr {
		n.send(m.New.Addr, JoinNackMsg{Reason: "identifier collision with predecessor"})
		return
	}
	if n.cfg.LegacyRules {
		// Original splice-at-admission: ownership and items move before the
		// joiner has proven it is alive. A joiner that vanished between
		// request and admission leaves a dead predecessor holding our items
		// (the regression tests reproduce exactly that).
		oldPred := n.pred
		items := n.app.HandoverOut(oldPred.ID, m.New.ID)
		n.setPred(m.New)
		succs := n.trimSuccs(append([]NodeRef{n.self}, n.succs...))
		if !n.send(m.New.Addr, JoinAckMsg{Pred: oldPred, Succs: succs, Items: items}) {
			// The joiner vanished between request and admission: reclaim.
			n.setPred(oldPred)
			n.app.HandoverIn(items)
			return
		}
		if oldPred.Addr == n.self.Addr {
			// We were a singleton; the joiner is now both pred and succ.
			n.succs = n.trimSuccs([]NodeRef{m.New, n.self})
		} else if !oldPred.IsZero() {
			n.send(oldPred.Addr, SuccChangedMsg{NewSucc: m.New})
		}
		return
	}
	// Corrected admission: answer with our view of the ring but change no
	// state. The joiner links itself in as an appendage and confirms with a
	// JoinConfirmMsg once it is live; ownership moves only then.
	succs := n.trimSuccs(append([]NodeRef{n.self}, n.succs...))
	n.send(m.New.Addr, JoinAckMsg{Pred: n.pred, Succs: succs, Deferred: true})
}

func (n *Node) handleJoinAck(m JoinAckMsg) {
	if n.running || n.joinDone == nil {
		return
	}
	succs := n.trimSuccs(m.Succs)
	if succs[0].Addr == n.self.Addr {
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
	n.succs = succs
	for i := range n.fingers {
		n.fingers[i] = n.succs[0]
	}
	n.app.HandoverIn(m.Items)
	n.running = true
	if m.Deferred {
		// Phase three of the corrected join: we are listening and linked in
		// as an appendage; ask the owner to splice us in. Items arrive in
		// the HandoffMsg the owner sends on adoption. If the owner died
		// since acking, any live successor forwards the confirmation to the
		// current owner of our identifier.
		for _, s := range n.succs {
			if s.Addr == n.self.Addr {
				continue
			}
			if n.send(s.Addr, JoinConfirmMsg{New: n.self, Hops: 1}) {
				break
			}
		}
	}
	// Eagerly resolve the finger table; correctness does not depend on it
	// (stabilization repairs fingers), only routing speed.
	n.RebuildFingers()
	n.finishJoin(nil)
}

func (n *Node) handleJoinNack(m JoinNackMsg) {
	if n.running {
		return
	}
	n.finishJoin(fmt.Errorf("%w: %s", ErrJoinRefused, m.Reason))
}

func (n *Node) handleJoinConfirm(m JoinConfirmMsg) {
	if !n.running || m.New.IsZero() || m.New.Addr == n.self.Addr {
		return
	}
	if !n.Owns(m.New.ID) {
		// Ownership moved between ack and confirm (concurrent admission):
		// route the confirmation to the current owner, bounded like any
		// other forwarded message. On overflow the joiner stays an
		// appendage; stabilization's rectify splices it in later.
		if m.Hops >= n.maxHops() {
			return
		}
		m.Hops++
		n.forwardToward(m.New.ID, m)
		return
	}
	if m.New.ID == n.self.ID ||
		(!n.pred.IsZero() && m.New.ID == n.pred.ID && m.New.Addr != n.pred.Addr) {
		return // identifier collision surfaced after the ack; refuse
	}
	if n.pred.Addr == m.New.Addr {
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
	if p.IsZero() || p.Addr == n.self.Addr || p.Addr == n.pred.Addr {
		return false
	}
	old := n.pred
	from := old
	if from.IsZero() || from.Addr == n.self.Addr {
		from = n.self
	}
	if !n.cfg.Space.BetweenOpen(p.ID, from.ID, n.self.ID) {
		n.setPred(p)
		return true
	}
	items := n.app.HandoverOut(from.ID, p.ID)
	if !n.send(p.Addr, HandoffMsg{Pred: from, Items: items}) {
		// The candidate vanished between confirmation and splice: reclaim.
		n.app.HandoverIn(items)
		return false
	}
	wasSingleton := n.Succ().Addr == n.self.Addr
	n.setPred(p)
	if wasSingleton {
		// The adopted predecessor is also our only successor.
		n.succs = n.trimSuccs([]NodeRef{p, n.self})
	}
	if !old.IsZero() && old.Addr != n.self.Addr && old.Addr != p.Addr {
		n.send(old.Addr, SuccChangedMsg{NewSucc: p})
	}
	return true
}

func (n *Node) handleHandoff(m HandoffMsg) {
	n.app.HandoverIn(m.Items)
	if m.Pred.IsZero() || m.Pred.Addr == n.self.Addr {
		return
	}
	sp := n.cfg.Space
	if n.pred.IsZero() || n.pred.Addr == n.self.Addr {
		n.setPred(m.Pred)
		return
	}
	if n.pred.Addr == m.Pred.Addr {
		return
	}
	if sp.BetweenOpen(m.Pred.ID, n.pred.ID, n.self.ID) {
		// The sender knew a tighter arc boundary than we do (a predecessor
		// admitted while our ack was in flight): adopt it.
		n.setPred(m.Pred)
		return
	}
	if sp.BetweenOpen(n.pred.ID, m.Pred.ID, n.self.ID) {
		// Our boundary is tighter than the sender knew: the low end of the
		// transferred arc belongs to our predecessor — spill it forward.
		spill := n.app.HandoverOut(m.Pred.ID, n.pred.ID)
		if len(spill) > 0 && !n.send(n.pred.Addr, HandoffMsg{Pred: m.Pred, Items: spill}) {
			n.app.HandoverIn(spill)
		}
	}
}

// RebuildFingers issues FindSuccessor for every finger target and installs
// the answers as they arrive.
func (n *Node) RebuildFingers() {
	for i := 0; i < n.cfg.Space.Bits; i++ {
		i := i
		target := n.cfg.Space.Add(n.self.ID, uint64(1)<<uint(i))
		n.FindSuccessor(target, 0, func(m FoundMsg, err error) {
			if err == nil && !m.Owner.IsZero() {
				n.fingers[i] = m.Owner
			}
		})
	}
}

// Leave removes the node from the ring voluntarily, handing its stored
// items to the first reachable successor-list entry and splicing its
// neighbors together (paper: departure costs O(log N) messages to repair
// affected finger tables, which stabilization performs lazily).
func (n *Node) Leave() {
	if !n.running {
		return
	}
	n.running = false
	if n.Succ().Addr == n.self.Addr {
		return // singleton: nothing to hand over
	}
	items := n.app.HandoverOut(n.pred.ID, n.self.ID)
	var adopted NodeRef
	for _, s := range n.succs {
		if s.IsZero() || s.Addr == n.self.Addr {
			continue
		}
		if n.send(s.Addr, LeaveMsg{Leaving: n.self, Pred: n.pred, Items: items}) {
			adopted = s
			break
		}
	}
	if adopted.IsZero() {
		// No live successor to inherit the arc: keep the items locally
		// rather than dropping them — a restart or manual recovery can
		// still reach them.
		n.app.HandoverIn(items)
		return
	}
	if !n.pred.IsZero() && n.pred.Addr != n.self.Addr {
		n.send(n.pred.Addr, SuccChangedMsg{NewSucc: adopted})
	}
}

func (n *Node) handleLeave(m LeaveMsg) {
	n.app.HandoverIn(m.Items)
	if n.pred.Addr == m.Leaving.Addr {
		n.setPred(m.Pred)
	}
	n.dropDead(m.Leaving)
}

func (n *Node) handleSuccChanged(m SuccChangedMsg) {
	if m.NewSucc.IsZero() {
		return
	}
	if m.NewSucc.Addr == n.self.Addr {
		n.succs = n.trimSuccs([]NodeRef{n.self})
		return
	}
	n.succs = n.trimSuccs(append([]NodeRef{m.NewSucc}, n.succs...))
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
	if !n.running {
		return
	}
	if n.Succ().Addr == n.self.Addr {
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
	n.getState(succ.Addr, func(st StateMsg, err error) {
		if err != nil {
			n.dropDead(succ)
			return
		}
		cur := n.Succ()
		if x := st.Pred; !x.IsZero() && x.Addr != n.self.Addr && n.cfg.Space.BetweenOpen(x.ID, n.self.ID, cur.ID) {
			n.succs = n.trimSuccs(append([]NodeRef{x, cur}, st.Succs...))
		} else {
			n.succs = n.trimSuccs(append([]NodeRef{cur}, st.Succs...))
		}
		n.send(n.Succ().Addr, NotifyMsg{Candidate: n.self})
	})
}

// stabilizeStep probes the current successor, failing over through the
// successor list (depth bounds the cascade) when it is dead.
func (n *Node) stabilizeStep(depth int) {
	succ := n.Succ()
	if succ.Addr == n.self.Addr {
		return
	}
	n.getState(succ.Addr, func(st StateMsg, err error) {
		if err != nil {
			n.dropDead(succ)
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
		n.succs = n.trimSuccs(append(base, st.Succs...))
		cur = n.Succ()
		x := st.Pred
		if x.IsZero() || x.Addr == n.self.Addr || x.Addr == cur.Addr ||
			!n.cfg.Space.BetweenOpen(x.ID, n.self.ID, cur.ID) {
			n.notifySucc()
			return
		}
		// The successor names a closer predecessor: adopt it only once its
		// own probe answers (Zave's correction — the original rule adopts a
		// possibly-dead candidate here and strands the ring).
		n.getState(x.Addr, func(xst StateMsg, err error) {
			if err != nil {
				n.ctr.succRejects.Inc()
				n.notifySucc()
				return
			}
			if c := n.Succ(); n.cfg.Space.BetweenOpen(x.ID, n.self.ID, c.ID) {
				n.succs = n.trimSuccs(append(append([]NodeRef{x}, xst.Succs...), n.succs...))
			}
			n.notifySucc()
		})
	})
}

func (n *Node) notifySucc() {
	if s := n.Succ(); s.Addr != n.self.Addr {
		n.send(s.Addr, NotifyMsg{Candidate: n.self})
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
	if !n.running || m.Candidate.Addr == n.self.Addr {
		return
	}
	if n.cfg.LegacyRules {
		if n.pred.IsZero() || n.pred.Addr == n.self.Addr ||
			n.cfg.Space.BetweenOpen(m.Candidate.ID, n.pred.ID, n.self.ID) {
			n.setPred(m.Candidate)
		}
		return
	}
	if m.Candidate.Addr == n.pred.Addr {
		n.predSuspect = false // our predecessor is alive and still claims us
		return
	}
	if m.Candidate.ID == n.self.ID {
		return // identifier collision; refuse
	}
	if n.pred.IsZero() || n.pred.Addr == n.self.Addr || n.predSuspect ||
		n.cfg.Space.BetweenOpen(m.Candidate.ID, n.pred.ID, n.self.ID) {
		n.adoptPredHandoff(m.Candidate)
		return
	}
	// The candidate does not tighten the arc and the predecessor is not
	// under suspicion. Probe the predecessor before deciding: if it is
	// dead, the candidate is a live replacement path (rectify's fallback).
	pred := n.pred
	cand := m.Candidate
	n.getState(pred.Addr, func(st StateMsg, err error) {
		if n.pred.Addr != pred.Addr {
			return // predecessor changed while probing; decision is stale
		}
		if err != nil {
			n.predSuspect = true
			n.adoptPredHandoff(cand)
			return
		}
		n.predSuspect = false
	})
}

// FixFingers refreshes one finger table entry per call, cycling through the
// table — Chord's periodic finger repair ("each node periodically runs a
// stabilization algorithm where it chooses a random entry in its finger
// table, checks for its state, and updates it", paper Section 3.2).
func (n *Node) FixFingers() {
	if !n.running {
		return
	}
	i := n.fixNext
	n.fixNext = (n.fixNext + 1) % n.cfg.Space.Bits
	n.ctr.fingerFixes.Inc()
	target := n.cfg.Space.Add(n.self.ID, uint64(1)<<uint(i))
	n.FindSuccessor(target, 0, func(m FoundMsg, err error) {
		if err == nil && !m.Owner.IsZero() {
			n.fingers[i] = m.Owner
		}
	})
}

// CheckPredecessor probes the predecessor. Under the corrected rules an
// unreachable predecessor is marked suspect — kept as the arc boundary so
// ownership stays a partition — until rectify installs a live replacement.
// Under LegacyRules it is cleared outright, which momentarily widens this
// node's arc over the whole ring.
func (n *Node) CheckPredecessor() {
	if !n.running || n.pred.IsZero() || n.pred.Addr == n.self.Addr {
		return
	}
	pred := n.pred
	n.getState(pred.Addr, func(st StateMsg, err error) {
		if n.pred.Addr != pred.Addr {
			return
		}
		if err != nil {
			if n.cfg.LegacyRules {
				n.setPred(NodeRef{})
			} else {
				n.predSuspect = true
			}
			return
		}
		n.predSuspect = false
	})
}
