package squid

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"

	"squid/internal/chord"
	"squid/internal/sfc"
)

func TestStoreSaveLoadRoundTrip(t *testing.T) {
	s := NewStore(chord.Space{Bits: 16})
	s.Add(100, Element{Values: []string{"a", "b"}, Data: "one"})
	s.Add(100, Element{Values: []string{"a", "b"}, Data: "two"})
	s.Add(7, Element{Values: []string{"x"}, Data: "three"})
	s.Add(60000, Element{Values: []string{"z", "z"}, Data: "four"})

	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewStore(chord.Space{Bits: 16})
	restored.Add(999, Element{Data: "stale"}) // must be replaced, not merged
	if _, err := restored.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if restored.Keys() != 3 || restored.Elements() != 4 {
		t.Fatalf("restored %d keys / %d elements", restored.Keys(), restored.Elements())
	}
	if len(restored.At(999)) != 0 {
		t.Error("load must replace prior contents")
	}
	if got := restored.At(100); len(got) != 2 || got[0].Data != "one" {
		t.Errorf("bucket 100 = %v", got)
	}
	// Scan order intact.
	var keys []uint64
	restored.ScanSpan(sfc.Interval{Lo: 0, Hi: 1<<16 - 1}, func(k uint64, _ Element) {
		if len(keys) == 0 || keys[len(keys)-1] != k {
			keys = append(keys, k)
		}
	})
	want := []uint64{7, 100, 60000}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("scan order %v", keys)
		}
	}
}

func TestStoreLoadRejectsGarbage(t *testing.T) {
	s := NewStore(chord.Space{Bits: 16})
	if _, err := s.ReadFrom(strings.NewReader("not a store image")); err == nil {
		t.Error("garbage should fail to load")
	}
	if _, err := s.ReadFrom(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream should fail to load")
	}
}

func TestStoreSaveLoadEmpty(t *testing.T) {
	s := NewStore(chord.Space{Bits: 16})
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	r := NewStore(chord.Space{Bits: 16})
	if _, err := r.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if r.Keys() != 0 {
		t.Errorf("empty round trip has %d keys", r.Keys())
	}
}

// TestStoreLoadRefusesBadImages: a truncated image, a version-1 (gob)
// image, an image with trailing bytes and one of an unknown version are
// each refused, and the refusal leaves the store's contents as they were.
func TestStoreLoadRefusesBadImages(t *testing.T) {
	src := NewStore(chord.Space{Bits: 16})
	src.Add(100, Element{Values: []string{"a", "b"}, Data: "one"})
	src.Add(7, Element{Values: []string{"x"}, Data: "two"})
	var good bytes.Buffer
	if _, err := src.WriteTo(&good); err != nil {
		t.Fatal(err)
	}

	// The version-1 layout, encoded as that version's WriteTo did.
	var v1 bytes.Buffer
	type storeImage struct {
		Version int
		Keys    []uint64
		Buckets [][]Element
	}
	if err := gob.NewEncoder(&v1).Encode(storeImage{
		Version: 1,
		Keys:    []uint64{7},
		Buckets: [][]Element{{{Values: []string{"x"}, Data: "two"}}},
	}); err != nil {
		t.Fatal(err)
	}

	for name, img := range map[string][]byte{
		"truncated":  good.Bytes()[:good.Len()-3],
		"gob v1":     v1.Bytes(),
		"trailing":   append(append([]byte(nil), good.Bytes()...), 0, 1, 2),
		"version 3":  append([]byte{3}, good.Bytes()[1:]...),
		"key only":   good.Bytes()[:2+8],
		"huge count": {2, 0xff, 0xff, 0xff, 0xff, 0x0f},
	} {
		dst := NewStore(chord.Space{Bits: 16})
		dst.Add(999, Element{Values: []string{"k"}, Data: "kept"})
		if _, err := dst.ReadFrom(bytes.NewReader(img)); err == nil {
			t.Errorf("%s: image accepted", name)
		}
		if dst.Keys() != 1 || dst.Elements() != 1 || len(dst.At(999)) != 1 {
			t.Errorf("%s: refused load changed the store: %d keys / %d elements",
				name, dst.Keys(), dst.Elements())
		}
	}
}
