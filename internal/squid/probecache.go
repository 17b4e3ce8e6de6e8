package squid

import (
	"squid/internal/chord"
	"squid/internal/transport"
)

// cachedArc remembers one owner probe result: the node `owner` owned
// (pred, owner] when last heard from.
type cachedArc struct {
	pred, owner chord.NodeRef
}

// cacheLookup finds a cached arc containing the index, returning its
// owner.
func (e *Engine) cacheLookup(lo chord.ID) (cachedArc, bool) {
	sp := e.node.Space()
	for _, c := range e.arcCache {
		if sp.InArc(lo, c.pred, c.owner) {
			return c, true
		}
	}
	return cachedArc{}, false
}

// cacheInsert records a probe result, evicting FIFO beyond the configured
// size and replacing entries for the same owner.
func (e *Engine) cacheInsert(pred, owner chord.NodeRef) {
	if e.opts.ProbeCacheSize <= 0 || owner.IsZero() || pred.IsZero() {
		return
	}
	for i, c := range e.arcCache {
		if c.owner.Addr == owner.Addr {
			e.arcCache[i] = cachedArc{pred: pred, owner: owner}
			return
		}
	}
	if len(e.arcCache) >= e.opts.ProbeCacheSize {
		e.arcCache = e.arcCache[1:]
	}
	e.arcCache = append(e.arcCache, cachedArc{pred: pred, owner: owner})
}

// cacheDrop forgets entries owned by a peer that stopped answering.
func (e *Engine) cacheDrop(owner transport.Addr) {
	kept := e.arcCache[:0]
	for _, c := range e.arcCache {
		if c.owner.Addr != owner {
			kept = append(kept, c)
		}
	}
	e.arcCache = kept
}
