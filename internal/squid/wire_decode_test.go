package squid

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"squid/internal/chord"
	"squid/internal/telemetry"
	"squid/internal/wire"
)

// resultList builds n elements of k values each; values and data vary in
// length, including one-byte and empty strings.
func resultList(n, k int) []Element {
	words := []string{"", "q", "grid", "computer", "network", "a-very-long-keyword-value"}
	out := make([]Element, n)
	for i := range out {
		vals := make([]string, k)
		for j := range vals {
			vals[j] = words[(i+j)%len(words)]
		}
		out[i] = Element{Values: vals, Data: fmt.Sprintf("doc-%d.pdf", i)}
	}
	return out
}

func encodeFrame(t testing.TB, msg any) []byte {
	t.Helper()
	var e wire.Encoder
	if !wire.EncodeMessage(&e, msg) {
		t.Fatalf("EncodeMessage declined %T", msg)
	}
	return append([]byte(nil), e.Bytes()...)
}

// TestDecodeMatchesAllocs pins a result list's decode at a constant
// number of allocations through a reused decoder: the []Element, the
// values slab, the list's shared string and the message (from its pool,
// which no handler refills here).
func TestDecodeMatchesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, c := range []struct{ n, k int }{{8, 2}, {64, 3}} {
		frame := encodeFrame(t, &SubResultMsg{QID: 7, Token: 3, Matches: resultList(c.n, c.k)})
		var d wire.Decoder
		if n := testing.AllocsPerRun(100, func() {
			if _, err := d.Message(frame); err != nil {
				t.Fatal(err)
			}
		}); n > 4 {
			t.Errorf("%d elements of %d values: %.1f allocs per decode, want at most 4", c.n, c.k, n)
		}
	}
}

// TestDecodeMatchesCopiesFrame zeroes the frame after each decode: every
// decoded string must be a copy, since a connection reuses its frame
// buffer for the next frame.
func TestDecodeMatchesCopiesFrame(t *testing.T) {
	matches := resultList(16, 3)
	msgs := []any{
		&SubResultMsg{QID: 7, Token: 3, Matches: matches, Incomplete: true},
		ClientResultMsg{Token: 3, QID: 7, Matches: matches, Err: "partial result"},
		ReplicaMsg{Items: []chord.Item{{Key: 5, Value: matches}}},
	}
	var d wire.Decoder
	for _, msg := range msgs {
		frame := encodeFrame(t, msg)
		got, err := d.Message(frame)
		if err != nil {
			t.Fatalf("%T: %v", msg, err)
		}
		clear(frame)
		if !reflect.DeepEqual(got, msg) {
			t.Errorf("%T changed when its frame was zeroed:\n got %+v\nwant %+v", msg, got, msg)
		}
	}
}

// TestLinkedReportEncodesFlat encodes a report with two reports linked
// behind it: the frame must be byte for byte the frame of one report
// holding all three batches in chain order, under the head's Incomplete
// and Spans, so a decoded report has nothing linked. The encode allocates
// nothing.
func TestLinkedReportEncodesFlat(t *testing.T) {
	all := resultList(9, 2)
	spans := []telemetry.Span{{QID: 7, ID: 1, Kind: "cluster"}}
	head := &SubResultMsg{QID: 7, Token: 3, Matches: all[:2], Incomplete: true, Spans: spans}
	mid := (&SubResultMsg{QID: 7, Token: 8, Matches: all[2:2]}).link(&SubResultMsg{QID: 7, Token: 9, Matches: all[2:6]})
	head.link(mid)
	head.link(&SubResultMsg{QID: 7, Token: 4, Matches: all[6:], Incomplete: false, Spans: spans})
	flat := &SubResultMsg{QID: 7, Token: 3, Matches: all, Incomplete: true, Spans: spans}
	got, want := encodeFrame(t, head), encodeFrame(t, flat)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("linked report encodes as\n %x\nwant\n %x", got, want)
	}
	back, err := wire.DecodeMessage(got)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, flat) {
		t.Errorf("linked report decodes as %+v, want %+v", back, flat)
	}
	if !raceEnabled {
		var e wire.Encoder
		if n := testing.AllocsPerRun(100, func() {
			e.Reset()
			wire.EncodeMessage(&e, head)
		}); n != 0 {
			t.Errorf("%.1f allocs per encode of a linked report, want 0", n)
		}
	}
}

// TestDecodeMatchesValuesCapped checks that each element's Values is
// capped at its own length, so appending to one never overwrites the
// next element's values in the shared slab.
func TestDecodeMatchesValuesCapped(t *testing.T) {
	got, err := wire.DecodeMessage(encodeFrame(t, &SubResultMsg{Matches: resultList(4, 2)}))
	if err != nil {
		t.Fatal(err)
	}
	for i, el := range got.(*SubResultMsg).Matches {
		if cap(el.Values) != len(el.Values) {
			t.Fatalf("element %d: Values len %d cap %d", i, len(el.Values), cap(el.Values))
		}
	}
}

// TestReplicaDecodeDoesNotPin decodes a large replica batch and keeps one
// element: the rest of the frame must be collectable, because a Store
// retains what it is handed for as long as the element lives.
func TestReplicaDecodeDoesNotPin(t *testing.T) {
	data := strings.Repeat("x", 1024)
	items := make([]chord.Item, 1000)
	for i := range items {
		items[i] = chord.Item{Key: chord.ID(i), Value: []Element{{Values: []string{"computer", fmt.Sprint(i)}, Data: data}}}
	}
	frame := encodeFrame(t, ReplicaMsg{Items: items})
	items = nil

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var kept Element
	func() {
		v, err := wire.DecodeMessage(frame)
		if err != nil {
			t.Fatal(err)
		}
		kept = v.(ReplicaMsg).Items[0].Value.([]Element)[0]
	}()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(frame)
	if kept.Data != data {
		t.Fatalf("kept element decoded wrong: %d data bytes", len(kept.Data))
	}
	if retained := int64(after.HeapAlloc) - int64(before.HeapAlloc); retained >= 64<<10 {
		t.Errorf("one kept replica element retains %d bytes, want < 64 KB", retained)
	}
	runtime.KeepAlive(kept)
}

// TestDecodeHostileCounts feeds a ~4 KB SubResultMsg frame that claims
// 2000 elements, the first with 2000 values. The decode must fail without
// sizing anything by the claimed counts' product: the values slab is
// bounded by the frame's remaining bytes.
func TestDecodeHostileCounts(t *testing.T) {
	var e wire.Encoder
	e.Uvarint(tagSubResultMsg)
	e.Uvarint(1) // QID
	e.Uvarint(2) // Token
	e.Uvarint(2000)
	e.Uvarint(2000)
	frame := append(e.Bytes(), make([]byte, 4096)...) // empty strings, then truncation

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := wire.DecodeMessage(frame)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, wire.ErrTruncated) {
		t.Fatalf("decode of a truncated list: err %v, want ErrTruncated", err)
	}
	if total := after.TotalAlloc - before.TotalAlloc; total >= 1<<20 {
		t.Errorf("hostile counts allocated %d bytes, want < 1 MB", total)
	}
}

// BenchmarkDecodeMatches decodes a 64-element SubResultMsg through one
// reused decoder, as a TCP connection's read loop does.
func BenchmarkDecodeMatches(b *testing.B) {
	frame := encodeFrame(b, &SubResultMsg{QID: 7, Token: 3, Matches: resultList(64, 3)})
	var d wire.Decoder
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	for i := 0; i < b.N; i++ {
		if _, err := d.Message(frame); err != nil {
			b.Fatal(err)
		}
	}
}
