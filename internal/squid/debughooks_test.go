package squid

import (
	"squid/internal/keyspace"
	"squid/internal/transport"
)

// SetDebugDispatch (test hook) reports each dispatch round the engine
// flushes as its destinations in flush order and the number of cluster runs
// that joined an earlier run's message. Pass nil to remove. Call it on the
// delivery goroutine.
func (e *Engine) SetDebugDispatch(fn func(dests []transport.Addr, merged int)) {
	e.debugDispatch = fn
}

// OpenChildren (test hook) returns the number of dispatched child subtrees
// the engine still tracks. Call it on the delivery goroutine.
func (e *Engine) OpenChildren() int { return len(e.children) }

// HeldBookkeeping (test hook) returns the pooled bookkeeping the engine has
// taken and not given back: remote subtrees, child calls, dispatch rounds
// and refinement jobs. Call it on the delivery goroutine.
func (e *Engine) HeldBookkeeping() int { return e.held }

// PushReplicasFull (test hook) pushes every locally owned item to the
// current successors, as PushReplicas does when the replica set changed.
// Call it on the delivery goroutine.
func (e *Engine) PushReplicasFull() int { return e.pushReplicasFull() }

// QueuedReplicaKeys (test hook) returns how many changed keys the engine
// holds for its next delta push, repeats included. Call it on the
// delivery goroutine.
func (e *Engine) QueuedReplicaKeys() int { return len(e.dirtyKeys) }

// CursorSkip (test hook) returns how many elements at its curve position
// the cursor counts as already delivered; 0 for an undecodable cursor.
func CursorSkip(c Cursor) int {
	st, _ := c.decode()
	return st.skip
}

// CursorPos (test hook) returns the cursor's curve position; 0 for an
// undecodable cursor.
func CursorPos(c Cursor) uint64 {
	st, _ := c.decode()
	return st.pos
}

// CursorAt (test hook) returns a cursor of q at curve position pos, with
// skip elements there already delivered.
func CursorAt(q keyspace.Query, pos uint64, skip int) Cursor {
	return encodeCursor(q, pos, skip, false)
}
