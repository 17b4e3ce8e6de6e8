package squid

import (
	"sort"
	"sync"

	"squid/internal/chord"
	"squid/internal/sfc"
)

// Element is one published data element: the tuple of keyword/attribute
// values that indexes it (one value per dimension of the keyword space) and
// an opaque payload (document name, resource URI, ...).
type Element struct {
	Values []string
	Data   string
}

// Store is a node's local fragment of the distributed index: elements
// keyed by their curve index, with ordered access for cluster span scans.
//
// Mutations are confined to the node's delivery goroutine, like all engine
// state. Reads additionally happen on query-scheduler workers, so an
// internal RWMutex makes every read atomic with respect to concurrent
// mutation: a span scan sees either all or none of a handover, never half
// of one.
type Store struct {
	mu    sync.RWMutex
	space chord.Space
	byKey map[uint64][]Element //lint:guarded-by mu
	// sorted holds the keys in ascending order.
	sorted []uint64 //lint:guarded-by mu

	// dirty accumulates keys mutated since the last TakeDirty, for delta
	// replication pushes. nil unless TrackDirty was called: stores that are
	// never replicated (replica buffers, Replicas=0 deployments) skip the
	// bookkeeping entirely.
	dirty map[uint64]struct{} //lint:guarded-by mu
}

// NewStore returns an empty store over the given identifier space.
func NewStore(space chord.Space) *Store {
	return &Store{space: space, byKey: make(map[uint64][]Element)}
}

// TrackDirty enables dirty-key tracking. Mutations from this point on are
// recorded and handed out by TakeDirty.
func (s *Store) TrackDirty() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dirty == nil {
		s.dirty = make(map[uint64]struct{})
	}
}

//lint:holds s.mu
func (s *Store) markDirty(key uint64) {
	if s.dirty != nil {
		s.dirty[key] = struct{}{}
	}
}

// TakeDirty appends the tracked dirty keys to dst in ascending order and
// clears the tracking set. Keys whose items were since removed entirely are
// skipped (deletions are not delta-replicated; they age out on full pushes).
func (s *Store) TakeDirty(dst []uint64) []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	base := len(dst)
	for k := range s.dirty {
		if _, ok := s.byKey[k]; ok {
			dst = append(dst, k)
		}
		delete(s.dirty, k)
	}
	tail := dst[base:]
	sort.Slice(tail, func(i, j int) bool { return tail[i] < tail[j] })
	return dst
}

// SnapshotKeys copies the stored items under exactly the given keys (the
// delta counterpart of Snapshot). Keys with nothing stored are skipped.
func (s *Store) SnapshotKeys(keys []uint64) []chord.Item {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]chord.Item, 0, len(keys))
	for _, k := range keys {
		if bucket, ok := s.byKey[k]; ok {
			out = append(out, chord.Item{Key: chord.ID(k), Value: append([]Element(nil), bucket...)})
		}
	}
	return out
}

// Add stores an element under its curve index. Multiple elements may share
// a key (distinct documents with the same keyword tuple, or tuples that
// truncate to the same coordinates).
func (s *Store) Add(key uint64, e Element) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.addLocked(key, e)
}

func (s *Store) addLocked(key uint64, e Element) {
	if _, exists := s.byKey[key]; !exists {
		i := sort.Search(len(s.sorted), func(i int) bool { return s.sorted[i] >= key })
		s.sorted = append(s.sorted, 0)
		copy(s.sorted[i+1:], s.sorted[i:])
		s.sorted[i] = key
	}
	s.byKey[key] = append(s.byKey[key], e)
	s.markDirty(key)
}

// Keys returns the number of distinct keys stored — the paper's load
// metric.
func (s *Store) Keys() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byKey)
}

// Elements returns the total number of stored elements.
func (s *Store) Elements() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, b := range s.byKey {
		n += len(b)
	}
	return n
}

// ScanSpan calls fn for every stored element whose key lies in the
// inclusive index interval. The read lock is held for the whole scan, so
// fn must not mutate the store; scheduler workers rely on the scan being
// atomic with respect to concurrent handovers.
func (s *Store) ScanSpan(span sfc.Interval, fn func(key uint64, e Element)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	i := sort.Search(len(s.sorted), func(i int) bool { return s.sorted[i] >= span.Lo })
	for ; i < len(s.sorted) && s.sorted[i] <= span.Hi; i++ {
		k := s.sorted[i]
		for _, e := range s.byKey[k] {
			fn(k, e)
		}
	}
}

// At returns the elements stored under exactly key. The returned slice is
// the live bucket: callers must not retain it across a mutation (all
// current callers run on the delivery goroutine and consume it in place).
func (s *Store) At(key uint64) []Element {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.byKey[key]
}

// Snapshot copies every stored item (for replication pushes).
func (s *Store) Snapshot() []chord.Item {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]chord.Item, 0, len(s.sorted))
	for _, k := range s.sorted {
		out = append(out, chord.Item{Key: chord.ID(k), Value: append([]Element(nil), s.byKey[k]...)})
	}
	return out
}

//lint:holds s.mu
func (s *Store) contains(key uint64, e Element) bool {
	for _, have := range s.byKey[key] {
		if have.Data == e.Data && equalValues(have.Values, e.Values) {
			return true
		}
	}
	return false
}

// AddBatch bulk-loads items: elements are appended to their key buckets and
// all fresh keys are merged into the sorted index in one pass, so loading n
// items costs O(n log n + existing) instead of the O(n·existing) of n Add
// calls. Non-element item values are skipped.
func (s *Store) AddBatch(items []chord.Item) {
	s.addBatch(items, false)
}

// AddBatchUnique is AddBatch that skips an element when an identical one
// (same values and payload) already exists under its key; it returns how
// many elements were actually added. Replication uses it so repeated
// pushes and promotions never duplicate.
func (s *Store) AddBatchUnique(items []chord.Item) int {
	return s.addBatch(items, true)
}

func (s *Store) addBatch(items []chord.Item, unique bool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	added := 0
	var fresh []uint64
	for _, it := range items {
		bucket, ok := it.Value.([]Element)
		if !ok {
			continue
		}
		key := uint64(it.Key)
		for _, e := range bucket {
			if unique && s.contains(key, e) {
				continue
			}
			if _, exists := s.byKey[key]; !exists {
				fresh = append(fresh, key)
			}
			s.byKey[key] = append(s.byKey[key], e)
			s.markDirty(key)
			added++
		}
	}
	if len(fresh) > 0 {
		s.mergeSorted(fresh)
	}
	return added
}

// mergeSorted merges the fresh (unsorted, duplicate-free) keys into the
// ascending key index.
//
//lint:holds s.mu
func (s *Store) mergeSorted(fresh []uint64) {
	sort.Slice(fresh, func(i, j int) bool { return fresh[i] < fresh[j] })
	old := s.sorted
	merged := make([]uint64, 0, len(old)+len(fresh))
	i, j := 0, 0
	for i < len(old) && j < len(fresh) {
		if old[i] <= fresh[j] {
			merged = append(merged, old[i])
			i++
		} else {
			merged = append(merged, fresh[j])
			j++
		}
	}
	merged = append(merged, old[i:]...)
	merged = append(merged, fresh[j:]...)
	s.sorted = merged
}

func equalValues(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Remove deletes the first stored element under key equal to e (same
// values and payload); reports whether anything was removed.
func (s *Store) Remove(key uint64, e Element) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	bucket, ok := s.byKey[key]
	if !ok {
		return false
	}
	for i, have := range bucket {
		if have.Data == e.Data && equalValues(have.Values, e.Values) {
			bucket = append(bucket[:i], bucket[i+1:]...)
			if len(bucket) == 0 {
				delete(s.byKey, key)
				j := sort.Search(len(s.sorted), func(j int) bool { return s.sorted[j] >= key })
				if j < len(s.sorted) && s.sorted[j] == key {
					s.sorted = append(s.sorted[:j], s.sorted[j+1:]...)
				}
			} else {
				s.byKey[key] = bucket
			}
			s.markDirty(key)
			return true
		}
	}
	return false
}

// MedianKey returns the median stored key — the split point the runtime
// load-balancing algorithms use to halve a node's arc. ok is false when
// the store is empty.
func (s *Store) MedianKey() (key uint64, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.sorted) == 0 {
		return 0, false
	}
	return s.sorted[len(s.sorted)/2], true
}

// HandoverOut removes and returns all items whose keys lie in the ring arc
// (a, b], for transfer to a new owner.
func (s *Store) HandoverOut(a, b chord.ID) []chord.Item {
	s.mu.Lock()
	defer s.mu.Unlock()
	var items []chord.Item
	kept := s.sorted[:0]
	for _, k := range s.sorted {
		if s.space.Between(chord.ID(k), a, b) {
			items = append(items, chord.Item{Key: chord.ID(k), Value: s.byKey[k]})
			delete(s.byKey, k)
		} else {
			kept = append(kept, k)
		}
	}
	s.sorted = kept
	return items
}

// replaceWith adopts o's contents wholesale (restart reconciliation). The
// receiver's own lock stays in place — copying a Store by value would copy
// its RWMutex.
func (s *Store) replaceWith(o *Store) {
	s.mu.Lock()
	o.mu.Lock()
	s.byKey, s.sorted, s.dirty = o.byKey, o.sorted, o.dirty
	o.mu.Unlock()
	s.mu.Unlock()
}

// HandoverIn ingests items transferred from another node.
func (s *Store) HandoverIn(items []chord.Item) {
	s.AddBatch(items)
}
