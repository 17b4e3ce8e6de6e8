package squid

import (
	"strconv"
	"strings"

	"squid/internal/keyspace"
	"squid/internal/sfc"
)

// resultCache is the engine's bounded popular-cluster result cache: the
// matches of leaf subtrees — cluster batches this node resolved entirely
// against its local store — keyed by (query, cluster set). Zipf keyword
// popularity concentrates queries on a handful of refined clusters, so a
// small cache absorbs the bulk of repeat refinement work: a hit answers the
// incoming ClusterQueryMsg immediately, skipping the scheduler, the Hilbert
// refinement walk, and the store scan.
//
// Only leaf subtrees are cached, deliberately: their matches depend on
// nothing but the local store's content inside the clusters' spans, so the
// engine's signal after every change to that store (Engine.mutated) is an
// exact invalidation signal. Subtrees with remote children aggregate
// other nodes' data, which local tracking cannot see — those are never
// cached, so a hit is always as fresh as the local store.
//
// Like all engine state the cache is confined to the node's delivery
// goroutine; eviction is FIFO (matching the probe cache's idiom), sized by
// Options.ResultCacheSize.
type resultCacheEntry struct {
	key     string
	spans   []sfc.Interval // curve spans covered, for per-key invalidation
	matches []Element
}

type resultCache struct {
	max int
	// byKey indexes entries by cache key.
	entries []resultCacheEntry //lint:confine delivery
	byKey   map[string]int     //lint:confine delivery
}

func newResultCache(max int) *resultCache {
	return &resultCache{max: max, byKey: make(map[string]int, max)}
}

// cacheKey fingerprints one incoming cluster batch: the canonical query
// text plus every cluster's prefix/level/complete triple. Identical repeat
// queries refine identically over a stable ring, so popular traffic
// collapses onto few keys.
func resultCacheKey(q keyspace.Query, cls []sfc.Refined) string {
	var b strings.Builder
	b.WriteString(q.String())
	for _, c := range cls {
		b.WriteByte('|')
		b.WriteString(strconv.FormatUint(c.Prefix, 16))
		b.WriteByte('/')
		b.WriteString(strconv.Itoa(c.Level))
		if c.Complete {
			b.WriteByte('!')
		}
	}
	return b.String()
}

// get returns the cached matches for key, if present.
func (rc *resultCache) get(key string) ([]Element, bool) {
	i, ok := rc.byKey[key]
	if !ok {
		return nil, false
	}
	return rc.entries[i].matches, true
}

// put stores a completed leaf subtree's matches, evicting FIFO beyond the
// configured size. A re-put under an existing key replaces it in place
// (same clusters re-resolved after an invalidation).
func (rc *resultCache) put(key string, spans []sfc.Interval, matches []Element) {
	if i, ok := rc.byKey[key]; ok {
		rc.entries[i] = resultCacheEntry{key: key, spans: spans, matches: matches}
		return
	}
	if len(rc.entries) >= rc.max {
		rc.evictOldest()
	}
	rc.byKey[key] = len(rc.entries)
	rc.entries = append(rc.entries, resultCacheEntry{key: key, spans: spans, matches: matches})
}

func (rc *resultCache) evictOldest() {
	if len(rc.entries) == 0 {
		return
	}
	delete(rc.byKey, rc.entries[0].key)
	rc.entries = rc.entries[1:]
	for k, i := range rc.byKey {
		rc.byKey[k] = i - 1
	}
}

// invalidate drops every entry whose covered spans contain the mutated
// curve index — the cache side of the engine's mutation signal.
func (rc *resultCache) invalidate(idx uint64) {
	if len(rc.entries) == 0 {
		return
	}
	kept := rc.entries[:0]
	changed := false
	for _, e := range rc.entries {
		stale := false
		for _, sp := range e.spans {
			if idx >= sp.Lo && idx <= sp.Hi {
				stale = true
				break
			}
		}
		if stale {
			changed = true
			continue
		}
		kept = append(kept, e)
	}
	rc.entries = kept
	if changed {
		for k := range rc.byKey {
			delete(rc.byKey, k)
		}
		for i, e := range rc.entries {
			rc.byKey[e.key] = i
		}
	}
}

// clear drops everything — the safe response to bulk ownership changes
// (handovers, replica promotion) whose touched key set is not enumerated.
func (rc *resultCache) clear() {
	rc.entries = rc.entries[:0]
	for k := range rc.byKey {
		delete(rc.byKey, k)
	}
}
