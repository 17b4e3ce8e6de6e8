package squid

import (
	"cmp"
	"slices"
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

// maxRun bounds the entries of one run. A run holding a single key may
// exceed it, since a key's elements never span two runs.
const maxRun = 256

// run is one stretch of the store in curve order. Entry i is key keys[i]
// with element elems[at[i]]: keys ascend, and the entries of one key keep
// their insertion order. Inserting or deleting an entry shifts only keys
// and at, which hold no pointers, and moves at most one element; shifting
// the elements themselves would run the GC write barrier over every
// pointer moved whenever a collection is marking. A run is never empty.
type run struct {
	keys  []uint64
	at    []int32
	elems []Element
}

// entries is a sequence of (key, element) pairs in two parallel slices:
// a batch on its way into runs, or a stretch of a run read out in order.
type entries struct {
	keys  []uint64
	elems []Element
}

// newRun makes a run of the ordered entries e, taking ownership of its
// slices; at gets the room keys has.
func newRun(e entries) run {
	at := make([]int32, len(e.keys), cap(e.keys))
	for i := range at {
		at[i] = int32(i)
	}
	return run{keys: e.keys, at: at, elems: e.elems}
}

// gather copies the elements of entries [lo, hi) in order.
func (r run) gather(lo, hi int) []Element {
	out := make([]Element, hi-lo)
	for i := range out {
		out[i] = r.elems[r.at[lo+i]]
	}
	return out
}

// find returns the position of the first entry in [lo, hi) whose element
// equals e, or -1.
func (r run) find(lo, hi int, e Element) int {
	for i := lo; i < hi; i++ {
		if sameElement(r.elems[r.at[i]], e) {
			return i
		}
	}
	return -1
}

// insert makes (key, e) entry i; e takes a new slot at the end of elems.
func (r *run) insert(i int, key uint64, e Element) {
	r.keys = slices.Insert(r.keys, i, key)
	r.at = slices.Insert(r.at, i, int32(len(r.elems)))
	r.elems = append(r.elems, e)
}

// delete removes entry i. The element in the last slot moves into the
// freed one.
func (r *run) delete(i int) {
	slot, last := r.at[i], int32(len(r.elems)-1)
	r.keys = slices.Delete(r.keys, i, i+1)
	r.at = slices.Delete(r.at, i, i+1)
	if slot != last {
		r.elems[slot] = r.elems[last]
		r.at[slices.Index(r.at, last)] = slot
	}
	r.elems[last] = Element{}
	r.elems = r.elems[:last]
}

// Store is a node's local fragment of the distributed index: elements
// keyed by their curve index, with ordered access for cluster span scans.
// The elements sit in one ordered list of runs, each about the size of its
// contents, so a span scan is a binary search followed by a linear walk.
//
// Mutations are confined to the node's delivery goroutine, like all engine
// state. Reads additionally happen on query-scheduler workers, so an
// internal RWMutex makes every read atomic with respect to concurrent
// mutation: a span scan sees either all or none of a handover, never half
// of one.
//
// The store keeps no record of what changed. The engine signals each
// mutation of its primary store once, to the result cache, to delta
// replication and to the keys gauge.
type Store struct {
	mu    sync.RWMutex
	space chord.Space
	// runs hold the elements in curve order; the last key of each run is
	// below the first key of the next.
	runs []run //lint:guarded-by mu
	// nkeys counts the distinct keys across runs.
	nkeys int //lint:guarded-by mu
}

// NewStore returns an empty store over the given identifier space.
func NewStore(space chord.Space) *Store {
	return &Store{space: space}
}

// seek returns the index of the first run whose last key is ≥ key, or
// len(runs) when every key is below it.
func seek(runs []run, key uint64) int {
	i, _ := slices.BinarySearchFunc(runs, key, func(r run, k uint64) int { return cmp.Compare(r.keys[len(r.keys)-1], k) })
	return i
}

// groupEnd returns the end of the key group that starts at keys[i]. It
// gallops, so a hot key's long group costs O(log) steps, not one a key.
func groupEnd(keys []uint64, i int) int {
	k, lo, step := keys[i], i+1, 1 // keys[lo-1] == k
	for lo+step <= len(keys) && keys[lo+step-1] == k {
		lo += step
		step *= 2
	}
	hi := min(lo+step-1, len(keys)) // keys[hi] != k, or hi == len(keys)
	return lo + sort.Search(hi-lo, func(j int) bool { return keys[lo+j] != k })
}

// locate returns the run that holds or would hold key, and the bounds
// [lo, hi) of key's entries in it (lo == hi when none are stored).
func locate(runs []run, key uint64) (ri, lo, hi int) {
	ri = seek(runs, key)
	if ri == len(runs) {
		return ri, 0, 0
	}
	ks := runs[ri].keys
	lo, found := slices.BinarySearch(ks, key)
	if !found {
		return ri, lo, lo
	}
	return ri, lo, groupEnd(ks, lo)
}

// SnapshotKeys copies the stored items under exactly the given keys (the
// delta counterpart of Snapshot). Keys with nothing stored are skipped.
func (s *Store) SnapshotKeys(keys []uint64) []chord.Item {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]chord.Item, 0, len(keys))
	for _, k := range keys {
		if ri, lo, hi := locate(s.runs, k); lo < hi {
			out = append(out, chord.Item{Key: chord.ID(k), Value: s.runs[ri].gather(lo, hi)})
		}
	}
	return out
}

// Add stores an element under its curve index, after any elements already
// stored under it. Multiple elements may share a key (distinct documents
// with the same keyword tuple, or tuples that truncate to the same
// coordinates). It copies at most one run: a run splits before it takes
// the element when it holds maxRun entries, or at least half that with no
// room left, so a bulk-loaded run is split rather than regrown.
func (s *Store) Add(key uint64, e Element) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ri, lo, hi := locate(s.runs, key)
	if lo == hi {
		s.nkeys++
		// A new key between two runs joins the shorter one, so it does not
		// land in a run that one hot key fills.
		if ri > 0 && hi == 0 && (ri == len(s.runs) || len(s.runs[ri-1].keys) < len(s.runs[ri].keys)) {
			ri--
			hi = len(s.runs[ri].keys)
		}
	}
	if ri == len(s.runs) {
		s.runs = append(s.runs, newRun(entries{keys: []uint64{key}, elems: []Element{e}}))
		return
	}
	if n := len(s.runs[ri].keys); (n >= maxRun || n >= maxRun/2 && n == cap(s.runs[ri].elems)) &&
		s.split(ri) && hi > len(s.runs[ri].keys) {
		hi -= len(s.runs[ri].keys)
		ri++
	}
	s.runs[ri].insert(hi, key, e)
}

// split cuts run ri at the key boundary nearest its middle, and reports
// whether it did: a run holding one key stays whole. The smaller side
// moves to new slices with room for maxRun entries. The larger side keeps
// the run's slices and the room the other leaves: its elements move into
// the slots below its length that moved entries held, so no allocation
// serves it.
//
//lint:holds s.mu
func (s *Store) split(ri int) bool {
	r := &s.runs[ri]
	n := len(r.keys)
	if r.keys[0] == r.keys[n-1] {
		return false
	}
	mid, cut := n/2, 0
	for d := 0; cut == 0; d++ {
		if i := mid - d; i > 0 && r.keys[i-1] != r.keys[i] {
			cut = i
		} else if i := mid + d; i < n && r.keys[i-1] != r.keys[i] {
			cut = i
		}
	}
	keepLo, keepHi, moveLo, moveHi := 0, cut, cut, n
	if cut < n-cut {
		keepLo, keepHi, moveLo, moveHi = cut, n, 0, cut
	}
	room := max(maxRun, moveHi-moveLo)
	moved := run{keys: make([]uint64, 0, room), at: make([]int32, 0, room), elems: make([]Element, 0, room)}
	for i := moveLo; i < moveHi; i++ {
		moved.insert(i-moveLo, r.keys[i], r.elems[r.at[i]])
	}
	k, h := int32(keepHi-keepLo), keepLo
	for _, hole := range r.at[moveLo:moveHi] {
		if hole >= k {
			continue
		}
		for r.at[h] < k {
			h++
		}
		r.elems[hole] = r.elems[r.at[h]]
		r.at[h] = hole
	}
	clear(r.elems[k:])
	r.elems = r.elems[:k]
	r.keys = append(r.keys[:0], r.keys[keepLo:keepHi]...)
	r.at = append(r.at[:0], r.at[keepLo:keepHi]...)
	if keepLo == 0 {
		s.runs = slices.Insert(s.runs, ri+1, moved)
	} else {
		s.runs = slices.Insert(s.runs, ri, moved)
	}
	return true
}

// Keys returns the number of distinct keys stored — the paper's load
// metric.
func (s *Store) Keys() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.nkeys
}

// Elements returns the total number of stored elements.
func (s *Store) Elements() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, r := range s.runs {
		n += len(r.keys)
	}
	return n
}

// ScanSpan calls fn for every stored element whose key lies in the
// inclusive index interval, in key order and, within a key, in insertion
// order. The read lock is held for the whole scan, so fn must not mutate
// the store; scheduler workers rely on the scan being atomic with respect
// to concurrent handovers.
func (s *Store) ScanSpan(span sfc.Interval, fn func(key uint64, e Element)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ri := seek(s.runs, span.Lo)
	if ri == len(s.runs) {
		return
	}
	i, _ := slices.BinarySearch(s.runs[ri].keys, span.Lo)
	for ; ri < len(s.runs); ri, i = ri+1, 0 {
		r := s.runs[ri]
		for ; i < len(r.keys); i++ {
			if r.keys[i] > span.Hi {
				return
			}
			fn(r.keys[i], r.elems[r.at[i]])
		}
	}
}

// At returns a copy of the elements stored under exactly key, in
// insertion order.
func (s *Store) At(key uint64) []Element {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ri, lo, hi := locate(s.runs, key)
	if lo == hi {
		return nil
	}
	return s.runs[ri].gather(lo, hi)
}

// Snapshot copies every stored item (for replication pushes).
func (s *Store) Snapshot() []chord.Item {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]chord.Item, 0, s.nkeys)
	for _, r := range s.runs {
		for i := 0; i < len(r.keys); {
			j := groupEnd(r.keys, i)
			out = append(out, chord.Item{Key: chord.ID(r.keys[i]), Value: r.gather(i, j)})
			i = j
		}
	}
	return out
}

// AddBatch bulk-loads items: elements are appended after those already
// stored under their keys, in batch order, and only the runs the batch
// touches are rebuilt, in one stable merge. Non-element item values are
// skipped.
func (s *Store) AddBatch(items []chord.Item) {
	s.addBatch(items, false)
}

// AddBatchUnique is AddBatch that skips an element when an identical one
// (same values and payload) already exists under its key; it returns how
// many elements were actually added. Replication uses it so repeated
// pushes and promotions never duplicate.
func (s *Store) AddBatchUnique(items []chord.Item) int {
	return len(s.addBatch(items, true))
}

// addBatch is AddBatch, or AddBatchUnique when unique is set. It returns
// the key of every element it added, in ascending order.
func (s *Store) addBatch(items []chord.Item, unique bool) []uint64 {
	n := 0
	for _, it := range items {
		if bucket, ok := it.Value.([]Element); ok {
			n += len(bucket)
		}
	}
	in := entries{keys: make([]uint64, 0, n), elems: make([]Element, 0, n)}
	for _, it := range items {
		if bucket, ok := it.Value.([]Element); ok {
			for _, e := range bucket {
				in.keys, in.elems = append(in.keys, uint64(it.Key)), append(in.elems, e)
			}
		}
	}
	in = sortStable(in)
	s.mu.Lock()
	defer s.mu.Unlock()
	if unique {
		in = s.dropKnown(in)
	}
	if len(in.keys) > 0 {
		s.merge(in)
	}
	return in.keys
}

// sortStable orders in by key, keeping the order of entries that share a
// key.
func sortStable(in entries) entries {
	if slices.IsSorted(in.keys) {
		return in
	}
	idx := make([]int32, len(in.keys))
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortStableFunc(idx, func(a, b int32) int { return cmp.Compare(in.keys[a], in.keys[b]) })
	out := entries{keys: make([]uint64, len(idx)), elems: make([]Element, len(idx))}
	for i, j := range idx {
		out.keys[i], out.elems[i] = in.keys[j], in.elems[j]
	}
	return out
}

// dropKnown filters the sorted entries in down to the elements not yet
// stored under their key and not earlier in in.
//
//lint:holds s.mu
func (s *Store) dropKnown(in entries) entries {
	n := 0
	for i := 0; i < len(in.keys); {
		j := groupEnd(in.keys, i)
		ri, lo, hi := locate(s.runs, in.keys[i])
		kept := n
		for ; i < j; i++ {
			e := in.elems[i]
			if (lo == hi || s.runs[ri].find(lo, hi, e) < 0) &&
				!slices.ContainsFunc(in.elems[kept:n], func(h Element) bool { return sameElement(h, e) }) {
				in.keys[n], in.elems[n] = in.keys[i], e
				n++
			}
		}
	}
	clear(in.elems[n:])
	return entries{keys: in.keys[:n], elems: in.elems[:n]}
}

// sameElement reports whether a and b have the same values and payload.
func sameElement(a, b Element) bool {
	return a.Data == b.Data && slices.Equal(a.Values, b.Values)
}

// merge folds the sorted, non-empty entries in into the runs. A run that
// no entry falls into is kept as it is; each run that some do is merged
// with them, entries after the run's own elements on equal keys, and cut
// into fresh runs.
//
//lint:holds s.mu
func (s *Store) merge(in entries) {
	for i := 0; i < len(in.keys); i = groupEnd(in.keys, i) {
		if _, lo, hi := locate(s.runs, in.keys[i]); lo == hi {
			s.nkeys++
		}
	}
	out := make([]run, 0, len(s.runs)+len(in.keys)/maxRun+1)
	j := 0
	for ri := range s.runs {
		r := &s.runs[ri]
		k := j
		if ri == len(s.runs)-1 {
			k = len(in.keys) // the last run takes every key above it too
		} else {
			for last := r.keys[len(r.keys)-1]; k < len(in.keys) && in.keys[k] <= last; k++ {
			}
		}
		if k == j {
			out = append(out, *r)
			continue
		}
		out = cut(out, mergeInto(r, entries{keys: in.keys[j:k], elems: in.elems[j:k]}))
		j = k
	}
	if len(s.runs) == 0 {
		out = cut(out, in)
	}
	s.runs = out
}

// mergeInto merges the sorted entries b with run a's entries, a's first on
// equal keys.
func mergeInto(a *run, b entries) entries {
	n := len(a.keys) + len(b.keys)
	m := entries{keys: make([]uint64, 0, n), elems: make([]Element, 0, n)}
	i, j := 0, 0
	for i < len(a.keys) || j < len(b.keys) {
		if j == len(b.keys) || i < len(a.keys) && a.keys[i] <= b.keys[j] {
			m.keys, m.elems = append(m.keys, a.keys[i]), append(m.elems, a.elems[a.at[i]])
			i++
		} else {
			m.keys, m.elems = append(m.keys, b.keys[j]), append(m.elems, b.elems[j])
			j++
		}
	}
	return m
}

// cut appends the sorted entries of m to out as runs of about equal
// length, at most 15/16 of maxRun each unless one key alone holds more, cut
// at key boundaries. Each run is copied to slices sized to its contents
// plus 1/16 spare room, so a run of n entries takes n/16 inserts before a
// split: none for the small runs of a small store, and after a bulk load
// a few publishes per run do not each cost a split.
func cut(out []run, m entries) []run {
	if len(m.keys) == 0 {
		return out
	}
	const fill = maxRun * 15 / 16
	target := len(m.keys) / ((len(m.keys) + fill - 1) / fill)
	for i := 0; i < len(m.keys); {
		j := i
		for j < len(m.keys) {
			g := groupEnd(m.keys, j)
			if j > i && (g-i > fill || j-i >= target) {
				break
			}
			j = g
		}
		room := j - i + (j-i)/16
		out = append(out, newRun(entries{
			keys:  append(make([]uint64, 0, room), m.keys[i:j]...),
			elems: append(make([]Element, 0, room), m.elems[i:j]...),
		}))
		i = j
	}
	return out
}

// Remove deletes the first stored element under key equal to e (same
// values and payload); reports whether anything was removed. It copies at
// most one run, and drops the run if it empties.
func (s *Store) Remove(key uint64, e Element) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	ri, lo, hi := locate(s.runs, key)
	if lo == hi {
		return false
	}
	r := &s.runs[ri]
	i := r.find(lo, hi, e)
	if i < 0 {
		return false
	}
	r.delete(i)
	if hi-lo == 1 {
		s.nkeys--
	}
	if len(r.keys) == 0 {
		s.runs = slices.Delete(s.runs, ri, ri+1)
	}
	return true
}

// MedianKey returns the median distinct stored key — the split point the
// runtime load-balancing algorithms use to halve a node's arc. ok is false
// when the store is empty.
func (s *Store) MedianKey() (key uint64, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	left := s.nkeys / 2
	for _, r := range s.runs {
		for i := 0; i < len(r.keys); i = groupEnd(r.keys, i) {
			if left == 0 {
				return r.keys[i], true
			}
			left--
		}
	}
	return 0, false
}

// HandoverOut removes and returns all items whose keys lie in the ring arc
// (a, b], for transfer to a new owner. A run left partly in place is
// rebuilt from its remaining entries.
func (s *Store) HandoverOut(a, b chord.ID) []chord.Item {
	s.mu.Lock()
	defer s.mu.Unlock()
	moves := func(k uint64) bool { return s.space.Between(chord.ID(k), a, b) }
	var items []chord.Item
	kept := s.runs[:0]
	for ri := range s.runs {
		r := &s.runs[ri]
		if !slices.ContainsFunc(r.keys, moves) {
			kept = append(kept, *r)
			continue
		}
		var left entries
		for i := 0; i < len(r.keys); {
			j := groupEnd(r.keys, i)
			if moves(r.keys[i]) {
				items = append(items, chord.Item{Key: chord.ID(r.keys[i]), Value: r.gather(i, j)})
				s.nkeys--
			} else {
				for k := i; k < j; k++ {
					left.keys, left.elems = append(left.keys, r.keys[k]), append(left.elems, r.elems[r.at[k]])
				}
			}
			i = j
		}
		if len(left.keys) > 0 {
			kept = append(kept, newRun(left))
		}
	}
	clear(s.runs[len(kept):])
	s.runs = kept
	return items
}
