package squid

import (
	"testing"

	"squid/internal/chord"
	"squid/internal/sfc"
)

func TestStoreAddScan(t *testing.T) {
	s := NewStore(chord.Space{Bits: 16})
	s.Add(100, Element{Data: "a"})
	s.Add(50, Element{Data: "b"})
	s.Add(100, Element{Data: "c"}) // same key, second element
	s.Add(200, Element{Data: "d"})

	if s.Keys() != 3 {
		t.Errorf("Keys = %d, want 3", s.Keys())
	}
	if s.Elements() != 4 {
		t.Errorf("Elements = %d, want 4", s.Elements())
	}
	if got := s.At(100); len(got) != 2 {
		t.Errorf("At(100) = %v", got)
	}

	var seen []string
	s.ScanSpan(sfc.Interval{Lo: 50, Hi: 150}, func(k uint64, e Element) {
		seen = append(seen, e.Data)
	})
	if len(seen) != 3 || seen[0] != "b" { // 50 first (ordered), then 100's two
		t.Errorf("ScanSpan = %v", seen)
	}

	var none []string
	s.ScanSpan(sfc.Interval{Lo: 300, Hi: 400}, func(k uint64, e Element) { none = append(none, e.Data) })
	if none != nil {
		t.Errorf("empty span scan = %v", none)
	}
}

func TestStoreScanOrdered(t *testing.T) {
	s := NewStore(chord.Space{Bits: 16})
	for _, k := range []uint64{500, 10, 300, 200, 400, 100} {
		s.Add(k, Element{Data: "x"})
	}
	var keys []uint64
	s.ScanSpan(sfc.Interval{Lo: 0, Hi: 1 << 15}, func(k uint64, e Element) { keys = append(keys, k) })
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			t.Fatalf("scan not ordered: %v", keys)
		}
	}
}

func TestStoreHandover(t *testing.T) {
	s := NewStore(chord.Space{Bits: 8})
	for k := uint64(0); k < 256; k += 16 {
		s.Add(k, Element{Data: "x"})
	}
	// Plain arc (64, 128].
	items := s.HandoverOut(64, 128)
	for _, it := range items {
		if !(uint64(it.Key) > 64 && uint64(it.Key) <= 128) {
			t.Errorf("handover leaked key %d", it.Key)
		}
	}
	if len(items) != 4 { // 80, 96, 112, 128
		t.Errorf("handover moved %d keys, want 4", len(items))
	}
	if s.Keys() != 12 {
		t.Errorf("%d keys left, want 12", s.Keys())
	}

	// Wrapping arc (240, 16].
	wrap := s.HandoverOut(240, 16)
	var wrapped []uint64
	for _, it := range wrap {
		wrapped = append(wrapped, uint64(it.Key))
	}
	if len(wrapped) != 2 { // 0, 16 (240 excluded, 256 doesn't exist)
		t.Errorf("wrapping handover = %v", wrapped)
	}

	// Round trip back in.
	other := NewStore(chord.Space{Bits: 8})
	other.AddBatch(items)
	if other.Keys() != 4 {
		t.Errorf("handover-in got %d keys", other.Keys())
	}
	// Scan order must remain intact after handover-in.
	var keys []uint64
	other.ScanSpan(sfc.Interval{Lo: 0, Hi: 255}, func(k uint64, e Element) { keys = append(keys, k) })
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			t.Fatalf("unordered after AddBatch: %v", keys)
		}
	}
}

func TestStoreHandoverFullRing(t *testing.T) {
	s := NewStore(chord.Space{Bits: 8})
	s.Add(10, Element{})
	s.Add(20, Element{})
	items := s.HandoverOut(5, 5) // a == b: the whole ring
	if len(items) != 2 || s.Keys() != 0 {
		t.Errorf("full-ring handover moved %d, left %d", len(items), s.Keys())
	}
}

func TestStoreRemove(t *testing.T) {
	s := NewStore(chord.Space{Bits: 16})
	a := Element{Values: []string{"x"}, Data: "a"}
	b := Element{Values: []string{"x"}, Data: "b"}
	s.Add(100, a)
	s.Add(100, b)
	s.Add(200, a)

	if !s.Remove(100, a) {
		t.Fatal("remove existing failed")
	}
	if s.Remove(100, a) {
		t.Error("double remove should fail")
	}
	if got := s.At(100); len(got) != 1 || got[0].Data != "b" {
		t.Errorf("bucket after remove = %v", got)
	}
	// Removing the last element of a bucket clears the key from scans.
	if !s.Remove(200, a) {
		t.Fatal("remove at 200 failed")
	}
	var keys []uint64
	s.ScanSpan(sfc.Interval{Lo: 0, Hi: 1<<16 - 1}, func(k uint64, _ Element) { keys = append(keys, k) })
	if len(keys) != 1 || keys[0] != 100 {
		t.Errorf("keys after removals = %v", keys)
	}
	if s.Remove(999, a) {
		t.Error("remove from absent key should fail")
	}
}

func TestStoreAddBatchEquivalence(t *testing.T) {
	seq := NewStore(chord.Space{Bits: 16})
	bat := NewStore(chord.Space{Bits: 16})
	elems := []struct {
		key  uint64
		data string
	}{
		{300, "a"}, {100, "b"}, {300, "c"}, {50, "d"}, {200, "e"},
		{100, "f"}, {7, "g"}, {65535, "h"}, {0, "i"}, {200, "j"},
	}
	var items []chord.Item
	for _, e := range elems {
		seq.Add(e.key, Element{Data: e.data})
		items = append(items, chord.Item{Key: chord.ID(e.key), Value: []Element{{Data: e.data}}})
	}
	// Half pre-loaded one by one, half batched: exercises merging fresh
	// keys into an existing sorted index.
	bat.Add(100, Element{Data: "b"})
	bat.Add(50, Element{Data: "d"})
	rest := make([]chord.Item, 0, len(items))
	for _, it := range items {
		if (uint64(it.Key) == 100 && it.Value.([]Element)[0].Data == "b") ||
			(uint64(it.Key) == 50 && it.Value.([]Element)[0].Data == "d") {
			continue
		}
		rest = append(rest, it)
	}
	bat.AddBatch(rest)

	if seq.Keys() != bat.Keys() || seq.Elements() != bat.Elements() {
		t.Fatalf("keys/elements: seq %d/%d, batch %d/%d", seq.Keys(), seq.Elements(), bat.Keys(), bat.Elements())
	}
	var sk, bk []uint64
	seq.ScanSpan(sfc.Interval{Lo: 0, Hi: ^uint64(0)}, func(k uint64, e Element) { sk = append(sk, k) })
	bat.ScanSpan(sfc.Interval{Lo: 0, Hi: ^uint64(0)}, func(k uint64, e Element) { bk = append(bk, k) })
	if len(sk) != len(bk) {
		t.Fatalf("scan lengths differ: %d vs %d", len(sk), len(bk))
	}
	for i := range sk {
		if sk[i] != bk[i] {
			t.Fatalf("scan order differs at %d: %d vs %d", i, sk[i], bk[i])
		}
	}
}

func TestStoreAddBatchUnique(t *testing.T) {
	s := NewStore(chord.Space{Bits: 16})
	s.Add(10, Element{Data: "x"})
	items := []chord.Item{
		{Key: 10, Value: []Element{{Data: "x"}, {Data: "y"}}}, // x dup, y new
		{Key: 20, Value: []Element{{Data: "z"}, {Data: "z"}}}, // second z dup within batch
		{Key: 30, Value: "not elements"},                      // skipped
	}
	if added := s.AddBatchUnique(items); added != 2 {
		t.Fatalf("added = %d, want 2", added)
	}
	if s.Elements() != 3 || s.Keys() != 2 {
		t.Fatalf("elements/keys = %d/%d, want 3/2", s.Elements(), s.Keys())
	}
	// Re-applying the same batch must be a no-op.
	if added := s.AddBatchUnique(items); added != 0 {
		t.Fatalf("re-add = %d, want 0", added)
	}
}

// TestStoreSnapshotKeys: SnapshotKeys copies exactly the asked-for keys
// that hold something.
func TestStoreSnapshotKeys(t *testing.T) {
	s := NewStore(chord.Space{Bits: 16})
	s.Add(300, Element{Data: "a"})
	s.Add(100, Element{Data: "b"})
	snap := s.SnapshotKeys([]uint64{100, 999})
	if len(snap) != 1 || uint64(snap[0].Key) != 100 {
		t.Fatalf("SnapshotKeys = %v", snap)
	}
}
