package wire

import (
	"reflect"
	"testing"
)

// FuzzDecoderPrimitives drives the primitive readers over arbitrary bytes:
// whatever the input, they must terminate without panicking, never read
// past the buffer, and leave a sticky error on anything malformed.
func FuzzDecoderPrimitives(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	var seed Encoder
	seed.Uvarint(300)
	seed.String("seed")
	seed.U64(42)
	f.Add(append([]byte(nil), seed.Bytes()...))
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		for d.Err() == nil && d.Remaining() > 0 {
			// Rotate through every primitive; order is arbitrary — the
			// point is that no byte sequence can panic or overrun.
			d.Uvarint()
			d.Int()
			d.U64()
			d.Bool()
			_ = d.String() // vet's unusedresult knows String(); parity with the other readers
			d.Strings()
			d.RawBytes()
			d.Len(4)
		}
	})
}

// FuzzDecodeMessage feeds arbitrary frames to the registry decoder. Valid
// frames for the test codecs must re-encode to the same bytes; garbage
// must fail cleanly.
func FuzzDecodeMessage(f *testing.F) {
	var e Encoder
	EncodeMessage(&e, testMsg{A: "seed", B: 7})
	f.Add(append([]byte(nil), e.Bytes()...))
	f.Add([]byte{0x01})       // TagNil is not a valid top-level message
	f.Add([]byte{0x00})       // reserved tag 0
	f.Add([]byte{0x91, 0x4e}) // tag 10001, empty body
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := DecodeMessage(data)
		if err != nil {
			return
		}
		// Anything that decoded must survive a re-encode/re-decode round
		// trip unchanged. (Byte identity is too strong: stdlib varint
		// readers accept non-minimal encodings.)
		var e Encoder
		if !EncodeMessage(&e, v) {
			t.Fatalf("decoded %T but cannot re-encode", v)
		}
		back, err := DecodeMessage(e.Bytes())
		if err != nil {
			t.Fatalf("re-decode of %T failed: %v", v, err)
		}
		if !reflect.DeepEqual(back, v) {
			t.Fatalf("round trip drifted for %T:\n first  %#v\n second %#v", v, v, back)
		}
	})
}
