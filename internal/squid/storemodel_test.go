package squid

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"squid/internal/chord"
	"squid/internal/sfc"
)

// storeEntry is one (key, element) pair of the store model.
type storeEntry struct {
	key uint64
	e   Element
}

// storeModel is the reference a Store is checked against: every stored
// (key, element) pair in insertion order, with nothing else.
type storeModel []storeEntry

// ordered is the model in store order: by key, and within a key in
// insertion order.
func (m storeModel) ordered() []storeEntry {
	out := slices.Clone(m)
	slices.SortStableFunc(out, func(a, b storeEntry) int {
		switch {
		case a.key < b.key:
			return -1
		case a.key > b.key:
			return 1
		}
		return 0
	})
	return out
}

// distinct returns the model's distinct keys in ascending order.
func (m storeModel) distinct() []uint64 {
	var keys []uint64
	for _, en := range m {
		keys = append(keys, en.key)
	}
	slices.Sort(keys)
	return slices.Compact(keys)
}

func (m storeModel) at(key uint64) []Element {
	var out []Element
	for _, en := range m {
		if en.key == key {
			out = append(out, en.e)
		}
	}
	return out
}

func (m storeModel) has(key uint64, e Element) bool {
	for _, en := range m {
		if en.key == key && modelSame(en.e, e) {
			return true
		}
	}
	return false
}

// modelSame is the model's element equality: same values and payload.
func modelSame(a, b Element) bool {
	return a.Data == b.Data && slices.Equal(a.Values, b.Values)
}

// modelItems groups entries, already in store order, into one item per key.
func modelItems(es []storeEntry) []chord.Item {
	var out []chord.Item
	for _, en := range es {
		if n := len(out); n > 0 && uint64(out[n-1].Key) == en.key {
			out[n-1].Value = append(out[n-1].Value.([]Element), en.e)
			continue
		}
		out = append(out, chord.Item{Key: chord.ID(en.key), Value: []Element{en.e}})
	}
	return out
}

// opReader hands out the fuzz input a byte at a time, zero once it is
// exhausted.
type opReader struct{ b []byte }

func (r *opReader) next() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// modelElement maps a byte to one of 24 elements: 8 payloads times 3
// value tuples, so equal elements are frequent.
func modelElement(b byte) Element {
	tuples := [][]string{nil, {"x"}, {"x", "y"}}
	return Element{Values: tuples[int(b>>3)%len(tuples)], Data: string(rune('a' + b&7))}
}

// batch decodes a batch: up to 7 items, each a key, a first element and a
// count. Count 0 is an item whose value is not an element list (skipped
// by the store); count c > 0 is a bucket of c consecutive elements.
func (r *opReader) batch() (items []chord.Item, entries []storeEntry) {
	n := int(r.next() % 8)
	for range n {
		key, base, count := uint64(r.next()), r.next(), int(r.next()%64)
		if count == 0 {
			items = append(items, chord.Item{Key: chord.ID(key), Value: "not elements"})
			continue
		}
		bucket := make([]Element, count)
		for i := range bucket {
			bucket[i] = modelElement(base + byte(i))
			entries = append(entries, storeEntry{key, bucket[i]})
		}
		items = append(items, chord.Item{Key: chord.ID(key), Value: bucket})
	}
	return items, entries
}

// checkStore compares every read of s with the model.
func checkStore(s *Store, m storeModel, span sfc.Interval) error {
	want := m.ordered()
	var got []storeEntry
	s.ScanSpan(sfc.Interval{Lo: 0, Hi: ^uint64(0)}, func(k uint64, e Element) { got = append(got, storeEntry{k, e}) })
	if err := sameEntries("full scan", got, want); err != nil {
		return err
	}
	got = got[:0]
	s.ScanSpan(span, func(k uint64, e Element) { got = append(got, storeEntry{k, e}) })
	var inSpan []storeEntry
	for _, en := range want {
		if en.key >= span.Lo && en.key <= span.Hi {
			inSpan = append(inSpan, en)
		}
	}
	if err := sameEntries(fmt.Sprintf("scan %v", span), got, inSpan); err != nil {
		return err
	}
	keys := m.distinct()
	if s.Keys() != len(keys) || s.Elements() != len(m) {
		return fmt.Errorf("Keys/Elements = %d/%d, model %d/%d", s.Keys(), s.Elements(), len(keys), len(m))
	}
	if k, ok := s.MedianKey(); ok != (len(keys) > 0) || ok && k != keys[len(keys)/2] {
		return fmt.Errorf("MedianKey = %d, %v; distinct keys %v", k, ok, keys)
	}
	for _, k := range append(slices.Clone(keys), 1<<8) { // 1<<8 is never stored
		if err := sameElements(fmt.Sprintf("At(%d)", k), s.At(k), m.at(k)); err != nil {
			return err
		}
	}
	items := modelItems(want)
	if err := sameItems("Snapshot", s.Snapshot(), items); err != nil {
		return err
	}
	return sameItems("SnapshotKeys", s.SnapshotKeys(append(keys, 1<<8)), items)
}

func sameEntries(what string, got, want []storeEntry) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d entries, model %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].key != want[i].key || !modelSame(got[i].e, want[i].e) {
			return fmt.Errorf("%s: entry %d = %d %v, model %d %v", what, i, got[i].key, got[i].e, want[i].key, want[i].e)
		}
	}
	return nil
}

func sameElements(what string, got, want []Element) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d elements, model %d", what, len(got), len(want))
	}
	for i := range got {
		if !modelSame(got[i], want[i]) {
			return fmt.Errorf("%s: element %d = %v, model %v", what, i, got[i], want[i])
		}
	}
	return nil
}

func sameItems(what string, got, want []chord.Item) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d items, model %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].Key != want[i].Key {
			return fmt.Errorf("%s: item %d has key %d, model %d", what, i, got[i].Key, want[i].Key)
		}
		if err := sameElements(fmt.Sprintf("%s key %d", what, got[i].Key), got[i].Value.([]Element), want[i].Value.([]Element)); err != nil {
			return err
		}
	}
	return nil
}

// storeModelSeeds are the fuzz target's seed inputs, in its op encoding.
func storeModelSeeds() [][]byte {
	var seeds [][]byte
	// Mixed small operations, with a removal of a key's last element.
	seeds = append(seeds, []byte{0, 10, 1, 0, 10, 2, 0, 20, 3, 1, 10, 1, 1, 20, 3, 6, 1, 5})
	// 300 Adds round-robin over ten keys: runs split while keys repeat
	// around the middle, and every key holds elements of several kinds.
	var rr []byte
	for i := range 300 {
		rr = append(rr, 0, byte(10*(i%10)), byte(i))
	}
	seeds = append(seeds, append(rr, 1, 30, 3, 1, 40, 0, 4, 25, 55, 5, 4, 200, 20))
	// One key with 315 elements among neighbors: a run above maxRun that
	// cannot split; then a wrapping handover and an image round trip.
	big := []byte{2, 7, 50, 0, 63, 50, 1, 63, 50, 2, 63, 50, 3, 63, 50, 4, 63, 40, 0, 5, 60, 1, 5}
	big = append(big, 0, 49, 9, 0, 51, 9, 3, 2, 50, 0, 63, 51, 9, 1, 1, 50, 0, 5, 4, 250, 45, 2, 1, 50, 0, 63)
	seeds = append(seeds, big)
	// Batches into a populated store, unique batches with duplicates inside
	// the batch, and removal of every element of one key.
	seeds = append(seeds, []byte{
		2, 3, 100, 0, 40, 120, 8, 40, 140, 16, 40,
		3, 3, 100, 0, 45, 110, 0, 3, 110, 0, 3,
		1, 110, 0, 1, 110, 1, 1, 110, 2, 6, 0, 6, 128,
		4, 105, 130, 5, 4, 0, 0,
	})
	return seeds
}

// FuzzStoreModel runs a sequence of store operations decoded from the
// input against Store and against a plain insertion-ordered list of
// (key, element) pairs, and after every operation compares every read.
//
// Ops (first byte mod 7): 0 Add key elem; 1 Remove key elem; 2 AddBatch;
// 3 AddBatchUnique; 4 HandoverOut a b (a > b wraps, a == b is the whole
// ring); 5 WriteTo then ReadFrom; 6 Remove of the model's entry at
// position byte·len/256 (a hit whenever the model is non-empty).
func FuzzStoreModel(f *testing.F) {
	for _, s := range storeModelSeeds() {
		f.Add(s)
	}
	space := chord.Space{Bits: 8}
	f.Fuzz(func(t *testing.T, in []byte) {
		s, m := NewStore(space), storeModel(nil)
		r := &opReader{b: in}
		for step := 0; len(r.b) > 0; step++ {
			op := r.next() % 7
			switch op {
			case 0:
				key, e := uint64(r.next()), modelElement(r.next())
				s.Add(key, e)
				m = append(m, storeEntry{key, e})
			case 1, 6:
				var key uint64
				var e Element
				if op == 1 {
					key, e = uint64(r.next()), modelElement(r.next())
				} else if pos := int(r.next()); len(m) > 0 {
					key, e = m[pos*len(m)/256].key, m[pos*len(m)/256].e
				}
				want := slices.IndexFunc(m, func(en storeEntry) bool { return en.key == key && modelSame(en.e, e) })
				if got := s.Remove(key, e); got != (want >= 0) {
					t.Fatalf("step %d: Remove(%d, %v) = %v, model has it at %d", step, key, e, got, want)
				}
				if want >= 0 {
					m = slices.Delete(m, want, want+1)
				}
			case 2:
				items, entries := r.batch()
				s.AddBatch(items)
				m = append(m, entries...)
			case 3:
				items, entries := r.batch()
				added := 0
				for _, en := range entries {
					if !m.has(en.key, en.e) {
						m = append(m, en)
						added++
					}
				}
				if got := s.AddBatchUnique(items); got != added {
					t.Fatalf("step %d: AddBatchUnique added %d, model %d", step, got, added)
				}
			case 4:
				a, b := chord.ID(r.next()), chord.ID(r.next())
				var out, kept storeModel
				for _, en := range m {
					if space.Between(chord.ID(en.key), a, b) {
						out = append(out, en)
					} else {
						kept = append(kept, en)
					}
				}
				if err := sameItems(fmt.Sprintf("step %d: HandoverOut(%d, %d)", step, a, b), s.HandoverOut(a, b), modelItems(out.ordered())); err != nil {
					t.Fatal(err)
				}
				m = kept
			case 5:
				var img bytes.Buffer
				if _, err := s.WriteTo(&img); err != nil {
					t.Fatal(err)
				}
				if _, err := s.ReadFrom(&img); err != nil {
					t.Fatalf("step %d: ReadFrom of its own image: %v", step, err)
				}
			}
			lo := uint64(step*37) % 256
			span := sfc.Interval{Lo: lo, Hi: lo + uint64(step*11)%64}
			if err := checkStore(s, m, span); err != nil {
				t.Fatalf("step %d (op %d): %v", step, op, err)
			}
		}
	})
}
