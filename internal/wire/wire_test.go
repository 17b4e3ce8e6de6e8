package wire

import (
	"errors"
	"math"
	"testing"
)

func TestPrimitiveRoundTrip(t *testing.T) {
	var e Encoder
	e.Uvarint(0)
	e.Uvarint(300)
	e.Uvarint(math.MaxUint64)
	e.Int(0)
	e.Int(-1)
	e.Int(math.MinInt64)
	e.Int(math.MaxInt64)
	e.U64(0xdeadbeefcafebabe)
	e.Bool(true)
	e.Bool(false)
	e.String("")
	e.String("héllo, wörld")
	e.Strings(nil)
	e.Strings([]string{"a", "", "ccc"})
	e.RawBytes([]byte{0, 1, 2})
	if e.Err() != nil {
		t.Fatalf("encode error: %v", e.Err())
	}

	d := NewDecoder(e.Bytes())
	check := func(name string, got, want any) {
		t.Helper()
		if got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	check("uvarint 0", d.Uvarint(), uint64(0))
	check("uvarint 300", d.Uvarint(), uint64(300))
	check("uvarint max", d.Uvarint(), uint64(math.MaxUint64))
	check("int 0", d.Int(), int64(0))
	check("int -1", d.Int(), int64(-1))
	check("int min", d.Int(), int64(math.MinInt64))
	check("int max", d.Int(), int64(math.MaxInt64))
	check("u64", d.U64(), uint64(0xdeadbeefcafebabe))
	check("bool t", d.Bool(), true)
	check("bool f", d.Bool(), false)
	check("string empty", d.String(), "")
	check("string", d.String(), "héllo, wörld")
	if got := d.Strings(); got != nil {
		t.Errorf("nil strings decoded as %v", got)
	}
	ss := d.Strings()
	if len(ss) != 3 || ss[0] != "a" || ss[1] != "" || ss[2] != "ccc" {
		t.Errorf("strings = %v", ss)
	}
	b := d.RawBytes()
	if len(b) != 3 || b[0] != 0 || b[2] != 2 {
		t.Errorf("bytes = %v", b)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestEncoderReuseNoAlloc(t *testing.T) {
	var e Encoder
	encode := func() {
		e.Reset()
		e.Uvarint(42)
		e.U64(0x1234)
		e.String("warm the buffer with a reasonably long string")
		e.Strings([]string{"x", "y"})
		e.Bool(true)
	}
	encode() // warm: grows the buffer once
	allocs := testing.AllocsPerRun(100, encode)
	if allocs != 0 {
		t.Fatalf("encode allocates %v/op after warmup, want 0", allocs)
	}
}

func TestDecoderTruncation(t *testing.T) {
	var e Encoder
	e.String("hello")
	e.U64(7)
	full := e.Bytes()
	// Every proper prefix must fail with a sticky error, never panic.
	for n := 0; n < len(full); n++ {
		d := NewDecoder(full[:n])
		_ = d.String()
		_ = d.U64()
		if d.Err() == nil {
			t.Fatalf("prefix of %d bytes decoded without error", n)
		}
		// Sticky: further reads stay zero-valued.
		if got := d.Uvarint(); got != 0 {
			t.Fatalf("read after error returned %d", got)
		}
	}
}

func TestDecoderTrailingBytes(t *testing.T) {
	var e Encoder
	e.Uvarint(1)
	e.Uvarint(2)
	d := NewDecoder(e.Bytes())
	d.Uvarint()
	if err := d.Close(); err == nil {
		t.Fatal("Close accepted trailing bytes")
	}
}

func TestLenGuardsHostileCounts(t *testing.T) {
	// A frame claiming 2^40 elements in a few bytes must be rejected
	// before any allocation.
	var e Encoder
	e.Uvarint(1 << 40)
	d := NewDecoder(e.Bytes())
	if n := d.Len(1); n != 0 {
		t.Fatalf("Len accepted hostile count: %d", n)
	}
	if !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", d.Err())
	}

	// Strings with a huge declared length likewise.
	e.Reset()
	e.Uvarint(1 << 40)
	d = NewDecoder(e.Bytes())
	if s := d.String(); s != "" || d.Err() == nil {
		t.Fatalf("String accepted hostile length: %q, err=%v", s, d.Err())
	}
}

// TestDecoderShare checks a Share scope: strings in it are one copy of
// the frame (never the frame itself), Unshare and Reset end the scope,
// and the strings read after it decode the same.
func TestDecoderShare(t *testing.T) {
	var e Encoder
	for _, s := range []string{"computer", "", "q", "network", "grid"} {
		e.String(s)
	}
	frame := append([]byte(nil), e.Bytes()...)
	var d Decoder
	d.Reset(frame)
	d.Share()
	a, empty, q := d.String(), d.String(), d.String()
	d.Unshare()
	b := d.String()
	d.Share()
	d.Reset(frame[len(frame)-5:])
	c := d.String()
	clear(frame)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if a != "computer" || empty != "" || q != "q" || b != "network" || c != "grid" {
		t.Fatalf("decoded %q %q %q %q %q after zeroing the frame", a, empty, q, b, c)
	}
}

func TestBoolRejectsJunk(t *testing.T) {
	d := NewDecoder([]byte{7})
	d.Bool()
	if !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("byte 7 decoded as bool, err = %v", d.Err())
	}
}

// test-only codec types registered far above the protocol tag ranges.
type testMsg struct {
	A string
	B uint64
}

type testNested struct {
	Inner any
}

type testUnregistered struct{}

func init() {
	Register(10_001, testMsg{},
		func(e *Encoder, v any) {
			m := v.(testMsg)
			e.String(m.A)
			e.U64(m.B)
		},
		func(d *Decoder) any {
			var m testMsg
			m.A = d.String()
			m.B = d.U64()
			return m
		})
	Register(10_002, testNested{},
		func(e *Encoder, v any) { e.Any(v.(testNested).Inner) },
		func(d *Decoder) any { return testNested{Inner: d.Any()} })
}

func TestMessageRoundTrip(t *testing.T) {
	var e Encoder
	msg := testMsg{A: "x", B: 9}
	if !EncodeMessage(&e, msg) {
		t.Fatal("EncodeMessage declined a registered type")
	}
	v, err := DecodeMessage(e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if v != msg {
		t.Fatalf("got %#v want %#v", v, msg)
	}
}

func TestEncodeMessageDeclinesUnregistered(t *testing.T) {
	var e Encoder
	if EncodeMessage(&e, testUnregistered{}) {
		t.Fatal("EncodeMessage accepted an unregistered type")
	}
}

func TestNestedAny(t *testing.T) {
	var e Encoder
	msg := testNested{Inner: testMsg{A: "in", B: 1}}
	if !EncodeMessage(&e, msg) {
		t.Fatal("nested registered payload declined")
	}
	v, err := DecodeMessage(e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if v != msg {
		t.Fatalf("got %#v want %#v", v, msg)
	}

	// nil payload round trips as nil.
	e.Reset()
	if !EncodeMessage(&e, testNested{}) {
		t.Fatal("nil payload declined")
	}
	v, err = DecodeMessage(e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if v.(testNested).Inner != nil {
		t.Fatalf("nil payload decoded as %#v", v)
	}

	// An unregistered nested payload poisons the whole message, so the
	// transport refuses it rather than send a partial frame.
	e.Reset()
	if EncodeMessage(&e, testNested{Inner: testUnregistered{}}) {
		t.Fatal("unregistered nested payload accepted")
	}
}

func TestDecodeMessageUnknownTag(t *testing.T) {
	for _, tag := range []uint64{0, 9_999_999} {
		var e Encoder
		e.Uvarint(tag)
		if _, err := DecodeMessage(e.Bytes()); err == nil {
			t.Fatalf("tag %d decoded", tag)
		}
	}
}

func TestRegisterPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("reserved tag 0", func() {
		Register(0, testUnregistered{}, func(*Encoder, any) {}, func(*Decoder) any { return nil })
	})
	expectPanic("reserved tag", func() {
		Register(TagNil, testMsg{}, func(*Encoder, any) {}, func(*Decoder) any { return nil })
	})
	expectPanic("duplicate tag", func() {
		Register(10_001, testUnregistered{}, func(*Encoder, any) {}, func(*Decoder) any { return nil })
	})
	expectPanic("duplicate type", func() {
		Register(10_003, testMsg{}, func(*Encoder, any) {}, func(*Decoder) any { return nil })
	})
}

func TestCodecsSortedAndComplete(t *testing.T) {
	cs := Codecs()
	if len(cs) < 2 {
		t.Fatalf("registry has %d codecs", len(cs))
	}
	for i := 1; i < len(cs); i++ {
		if cs[i-1].Tag >= cs[i].Tag {
			t.Fatalf("codecs not in ascending tag order at %d", i)
		}
	}
	seen := false
	for _, c := range cs {
		if c.Tag == 10_001 {
			seen = true
			if c.Type.Name() != "testMsg" {
				t.Fatalf("tag 10001 bound to %v", c.Type)
			}
		}
	}
	if !seen {
		t.Fatal("registered codec missing from Codecs()")
	}
}
