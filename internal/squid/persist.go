package squid

import (
	"fmt"
	"io"

	"squid/internal/wire"
)

// storeImageVersion leads every store image. Version 1 was a gob stream;
// version 2 is the wire codec: the version, the key count, then each key
// (8 bytes) followed by its bucket of elements.
const storeImageVersion = 2

// WriteTo serializes the store on the wire codec. Implements io.WriterTo.
func (s *Store) WriteTo(w io.Writer) (int64, error) {
	var e wire.Encoder
	s.mu.RLock()
	e.Uvarint(storeImageVersion)
	e.Uvarint(uint64(s.nkeys))
	for _, r := range s.runs {
		for i := 0; i < len(r.keys); {
			j := groupEnd(r.keys, i)
			e.U64(r.keys[i])
			e.Uvarint(uint64(j - i))
			for ; i < j; i++ {
				encodeElement(&e, r.elems[r.at[i]])
			}
		}
	}
	s.mu.RUnlock()
	n, err := w.Write(e.Bytes())
	if err != nil {
		return int64(n), fmt.Errorf("squid: store save: %w", err)
	}
	return int64(n), nil
}

// ReadFrom replaces the store's contents with a serialized image. The
// whole image is decoded and checked before the store changes, so a
// refused image leaves it as it was. Implements io.ReaderFrom.
func (s *Store) ReadFrom(r io.Reader) (int64, error) {
	n, _, err := s.load(r)
	return n, err
}

// load is ReadFrom that also returns the key of every loaded element, in
// ascending order.
func (s *Store) load(r io.Reader) (int64, []uint64, error) {
	b, err := io.ReadAll(r)
	n := int64(len(b))
	if err != nil {
		return n, nil, fmt.Errorf("squid: store load: %w", err)
	}
	d := wire.NewDecoder(b)
	if v := d.Uvarint(); d.Err() == nil && v != storeImageVersion {
		return n, nil, fmt.Errorf("squid: store image version %d unsupported", v)
	}
	var in entries
	for range d.Len(9) { // ≥ 8-byte key + bucket count
		k := d.U64()
		for _, e := range decodeElements(d) {
			in.keys, in.elems = append(in.keys, k), append(in.elems, e)
		}
	}
	if err := d.Close(); err != nil {
		return n, nil, fmt.Errorf("squid: store load: %w", err)
	}
	in = sortStable(in)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.runs, s.nkeys = nil, 0
	if len(in.keys) > 0 {
		s.merge(in)
	}
	return n, in.keys, nil
}

// SaveState serializes the engine's primary store (replicas are soft state
// rebuilt by PushReplicas). squid-node uses it to survive restarts.
func (e *Engine) SaveState(w io.Writer) error {
	_, err := e.store.WriteTo(w)
	return err
}

// LoadState restores a saved store. Call it on the delivery goroutine
// before joining a ring; after the join completes, run ReconcileOwnership
// so items whose arc moved while the node was down are re-routed to their
// current owners.
func (e *Engine) LoadState(r io.Reader) error {
	_, keys, err := e.store.load(r)
	if err == nil {
		e.mutatedBatch(keys)
	}
	return err
}

// ReconcileOwnership re-publishes every stored item this node no longer
// owns (after a restart-and-rejoin, ownership may have shifted) and drops
// it locally. Returns how many elements were re-routed: none while the
// node's arc is the whole ring.
func (e *Engine) ReconcileOwnership() int {
	self, pred := e.node.Self(), e.node.Pred()
	if pred.IsZero() || pred.ID == self.ID {
		return 0
	}
	stale := e.store.HandoverOut(self.ID, pred.ID)
	e.mutatedBatch(nil)
	n := 0
	for _, it := range stale {
		for _, elem := range it.Value.([]Element) {
			e.node.Route(it.Key, PublishMsg{Elem: elem}, 0)
			n++
		}
	}
	return n
}
