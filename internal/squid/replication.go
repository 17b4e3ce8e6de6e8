package squid

import (
	"slices"
	"strings"

	"squid/internal/chord"
	"squid/internal/sfc"
)

// ReplicaMsg pushes copies of stored items to a successor for fault
// tolerance. Replicas live outside the main store (queries never see them
// and they do not count as load); when the replica holder's arc grows —
// its predecessor failed — the replicas of newly owned keys are promoted
// into the main store, so data survives node failures.
type ReplicaMsg struct {
	Items []chord.Item
}

// replicate pushes the given items to the first Options.Replicas live
// successors.
func (e *Engine) replicate(items []chord.Item) {
	if e.opts.Replicas <= 0 || len(items) == 0 {
		return
	}
	sent := 0
	for _, s := range e.node.SuccList() {
		if s.Addr == e.node.Self().Addr {
			continue
		}
		if e.send(s.Addr, ReplicaMsg{Items: items}) {
			sent++
			if sent == e.opts.Replicas {
				return
			}
		}
	}
}

// PushReplicas replicates to the current successors, pushing only the
// delta — items whose keys changed since the last push. A full Snapshot
// is pushed only when the replica set itself changed (successors joined,
// failed or reordered), so steady-state ticks cost nothing when nothing
// happened. It returns the number of items pushed and whether the push
// was a full one. Run it after bulk loads and periodically alongside
// stabilization so replica placement tracks ring changes.
//
//lint:entry delivery
func (e *Engine) PushReplicas() (items int, full bool) {
	if e.opts.Replicas <= 0 {
		return 0, false
	}
	if e.replicaSet() != e.lastReplicaSet {
		return e.pushReplicasFull(), true
	}
	slices.Sort(e.dirtyKeys)
	delta := e.store.SnapshotKeys(slices.Compact(e.dirtyKeys))
	e.dirtyKeys = e.dirtyKeys[:0]
	if len(delta) == 0 {
		return 0, false
	}
	e.replicate(delta)
	e.met.replicaItems.Add(uint64(len(delta)))
	return len(delta), false
}

// pushReplicasFull unconditionally re-replicates every locally owned item
// to the current successors and records the replica set it went to.
func (e *Engine) pushReplicasFull() int {
	if e.opts.Replicas <= 0 {
		return 0
	}
	// The full snapshot covers everything; the queued keys are hereby
	// consumed too.
	e.dirtyKeys = e.dirtyKeys[:0]
	snap := e.store.Snapshot()
	e.replicate(snap)
	e.lastReplicaSet = e.replicaSet()
	e.met.replicaFulls.Inc()
	e.met.replicaItems.Add(uint64(len(snap)))
	return len(snap)
}

// replicaSet fingerprints the nodes a push would currently go to: the
// first Replicas non-self live successors, in order. Order matters — it is
// what replicate traverses — so any reordering triggers a full push.
func (e *Engine) replicaSet() string {
	var b strings.Builder
	n := 0
	for _, s := range e.node.SuccList() {
		if s.Addr == e.node.Self().Addr {
			continue
		}
		b.WriteString(string(s.Addr))
		b.WriteByte(';')
		n++
		if n == e.opts.Replicas {
			break
		}
	}
	return b.String()
}

// handleReplica stores pushed copies, or promotes them straight into the
// main store if this node already owns them (the pusher's view was stale).
func (e *Engine) handleReplica(m ReplicaMsg) {
	var owned, held []chord.Item
	for _, it := range m.Items {
		if _, ok := it.Value.([]Element); !ok {
			continue
		}
		if e.node.Owns(it.Key) {
			owned = append(owned, it)
		} else {
			held = append(held, it)
		}
	}
	if len(owned) > 0 {
		e.mutatedBatch(e.store.addBatch(owned, true))
	}
	e.replicas.AddBatchUnique(held)
}

// ArcChanged implements chord.ArcWatcher and keeps the primary/replica
// split converged with the ring: when the arc grows (the predecessor
// failed or moved back), replicas of newly owned keys are promoted into
// the main store; when it shrinks, items outside the arc are demoted back
// to replicas. During churn the predecessor pointer can be transiently
// wrong (stabilization adopts candidates incrementally), so promotion and
// demotion may both fire several times — the symmetry makes the stores
// self-stabilizing: once the pointer converges, exactly the owned keys are
// primary, everything else is soft state.
//
//lint:entry delivery
func (e *Engine) ArcChanged(oldPred, newPred chord.NodeRef) {
	if e.opts.Replicas <= 0 {
		return
	}
	// A cleared predecessor (failure just detected) makes the node claim
	// the whole ring transiently; reshuffling now would steal other nodes'
	// keys. Wait for stabilization to install a concrete predecessor.
	if newPred.IsZero() {
		return
	}
	self := e.node.Self()
	// Demote: everything outside (newPred, self] stops being primary.
	e.replicas.AddBatchUnique(e.store.HandoverOut(self.ID, newPred.ID))
	e.mutatedBatch(nil)
	// A predecessor adopted inside the old arc now succeeds the nodes this
	// one holds replicas for: if one died unnoticed, it inherits that arc
	// and needs the copies.
	if !oldPred.IsZero() && e.replicas.Keys() > 0 && e.node.Space().BetweenOpen(newPred.ID, oldPred.ID, self.ID) {
		e.send(newPred.Addr, ReplicaMsg{Items: e.replicas.Snapshot()})
	}
	// Promote: replicas inside the (possibly grown) arc become primary.
	if e.replicas.Keys() == 0 {
		return
	}
	var promoted []chord.Item
	e.replicas.ScanSpan(sfc.Interval{Lo: 0, Hi: ^uint64(0)}, func(key uint64, elem Element) {
		if e.node.Owns(chord.ID(key)) {
			promoted = append(promoted, chord.Item{Key: chord.ID(key), Value: []Element{elem}})
		}
	})
	if len(promoted) == 0 {
		return
	}
	e.mutatedBatch(e.store.addBatch(promoted, true))
	// Remove the promoted keys from the replica set and push fresh copies
	// of the newly owned data onward so the replication degree recovers.
	e.replicas.HandoverOut(newPred.ID, e.node.Self().ID)
	e.replicate(promoted)
}

var _ chord.ArcWatcher = (*Engine)(nil)
