// Package wire is Squid's hand-rolled binary codec, the only format the TCP
// transport speaks (see internal/transport and DESIGN.md §4i). It is
// fixed-layout and zero-alloc on encode, and carries no type names: a
// self-describing codec such as encoding/gob pays a per-connection
// type-description tax and a per-message type-name tax on every
// interface-valued field. Every codec is equivalence-tested against gob
// round trips, which serve as the oracle in tests only.
//
// Layout discipline: each message type owns one tag (registry.go) and one
// fixed field order. Integers are unsigned varints (lengths, counts,
// small enums) or fixed 8-byte little-endian words (ring identifiers,
// tokens — uniformly distributed, so varints would *grow* them). Strings
// and slices are length-prefixed. There is no field skipping and no
// self-description: changing a message's layout means assigning a fresh
// tag and keeping the old decoder, exactly like bumping an RPC version.
//
// Encode is allocation-free: an Encoder is an append-only buffer owned by
// one connection and reused frame after frame. Decode allocates only what
// the decoded value itself needs, and every length read is bounds-checked
// against the remaining input before any allocation, so a corrupt or
// hostile frame fails fast instead of allocating unboundedly.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrTruncated reports input that ended mid-value.
var ErrTruncated = errors.New("wire: truncated input")

// ErrCorrupt reports structurally invalid input (an impossible length, a
// varint overflow, trailing garbage).
var ErrCorrupt = errors.New("wire: corrupt input")

// Encoder is an append-only encode buffer. The zero value is ready to
// use; Reset between messages to reuse the backing array. Encoders are
// not safe for concurrent use — own one per connection.
type Encoder struct {
	buf []byte
	err error
}

// Reset truncates the buffer for a new message, keeping capacity, and
// clears any sticky error.
//
//lint:allocfree
func (e *Encoder) Reset() {
	e.buf = e.buf[:0]
	e.err = nil
}

// Bytes returns the encoded frame. The slice aliases the encoder's
// buffer and is invalidated by the next Reset.
//
//lint:allocfree
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes.
//
//lint:allocfree
func (e *Encoder) Len() int { return len(e.buf) }

// Err returns the sticky encode error (an unregistered dynamic type hit
// by Any), or nil.
func (e *Encoder) Err() error { return e.err }

// Uvarint appends an unsigned varint (LEB128, as encoding/binary).
//
//lint:allocfree
func (e *Encoder) Uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

// Int appends a signed integer as a zigzag varint.
//
//lint:allocfree
func (e *Encoder) Int(v int64) {
	e.buf = binary.AppendVarint(e.buf, v)
}

// U64 appends a fixed 8-byte little-endian word. Use it for ring
// identifiers, curve prefixes and tokens: they are uniformly distributed
// over 64 bits, where a varint averages longer than the fixed form.
//
//lint:allocfree
func (e *Encoder) U64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// Bool appends one byte, 0 or 1.
//
//lint:allocfree
func (e *Encoder) Bool(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// String appends a length-prefixed string.
//
//lint:allocfree
func (e *Encoder) String(s string) {
	e.buf = binary.AppendUvarint(e.buf, uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Bytes appends length-prefixed raw bytes.
//
//lint:allocfree
func (e *Encoder) RawBytes(b []byte) {
	e.buf = binary.AppendUvarint(e.buf, uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Strings appends a length-prefixed slice of strings.
//
//lint:allocfree
func (e *Encoder) Strings(ss []string) {
	e.buf = binary.AppendUvarint(e.buf, uint64(len(ss)))
	for _, s := range ss {
		e.String(s)
	}
}

// fail records the first encode error; later writes are still appended
// but the message is discarded by EncodeMessage.
func (e *Encoder) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// Decoder consumes one encoded frame. Errors are sticky: after the first
// truncation or corruption, every subsequent read returns a zero value,
// so codecs can decode straight-line and check Err once at the end.
//
// A Decoder is reusable: Reset (or Message) re-aims it at the next frame,
// so a connection owns one and decodes every frame through it.
type Decoder struct {
	buf []byte
	off int
	err error
	// shared is a copy of buf[base:] while a Share scope is open; String
	// then returns substrings of it instead of copying each string.
	shared string
	base   int
}

// NewDecoder wraps one frame's bytes.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Reset re-aims the decoder at a new frame, clearing state and ending
// any Share scope.
func (d *Decoder) Reset(b []byte) {
	d.buf = b
	d.off = 0
	d.err = nil
	d.Unshare()
}

// Share opens a shared-string scope: it copies the unread frame bytes
// into one string, and until Unshare every String returns a substring of
// that copy — one allocation for any number of strings. Strings decoded
// in the scope keep the whole copy alive, so share only transient values
// (a result list on its way to a requester), never values a long-lived
// structure retains. The copy never aliases the frame, which the caller
// may reuse for the next one. Scopes do not nest.
func (d *Decoder) Share() {
	if d.err != nil {
		return
	}
	d.shared = string(d.buf[d.off:])
	d.base = d.off
}

// Unshare closes the Share scope: later strings get their own copies.
//
//lint:allocfree
func (d *Decoder) Unshare() { d.shared = "" }

// Err returns the sticky decode error, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Corrupt marks the input corrupt: a codec calls it on a value the
// primitives read fine but its message cannot hold (an undefined flag bit,
// a zero where a positive count is required). The first error sticks.
func (d *Decoder) Corrupt() { d.fail(ErrCorrupt) }

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		if n == 0 {
			d.fail(ErrTruncated)
		} else {
			d.fail(ErrCorrupt)
		}
		return 0
	}
	d.off += n
	return v
}

// Int reads a zigzag varint.
func (d *Decoder) Int() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		if n == 0 {
			d.fail(ErrTruncated)
		} else {
			d.fail(ErrCorrupt)
		}
		return 0
	}
	d.off += n
	return v
}

// U64 reads a fixed 8-byte little-endian word.
func (d *Decoder) U64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.Remaining() < 8 {
		d.fail(ErrTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// Bool reads one byte; any value other than 0 or 1 is corruption.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.Remaining() < 1 {
		d.fail(ErrTruncated)
		return false
	}
	b := d.buf[d.off]
	d.off++
	if b > 1 {
		d.fail(ErrCorrupt)
		return false
	}
	return b == 1
}

// String reads a length-prefixed string. The length is validated against
// the remaining input before the string is allocated; inside a Share
// scope the string is a substring of the scope's copy and allocates
// nothing.
func (d *Decoder) String() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(d.Remaining()) {
		d.fail(ErrTruncated)
		return ""
	}
	if n == 0 {
		return "" // not a zero-length slice of a shared copy, which would pin it
	}
	var s string
	if d.shared != "" {
		s = d.shared[d.off-d.base : d.off-d.base+int(n)]
	} else {
		s = string(d.buf[d.off : d.off+int(n)])
	}
	d.off += int(n)
	return s
}

// RawBytes reads length-prefixed raw bytes (a fresh copy).
func (d *Decoder) RawBytes() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.Remaining()) {
		d.fail(ErrTruncated)
		return nil
	}
	b := make([]byte, n)
	copy(b, d.buf[d.off:])
	d.off += int(n)
	return b
}

// Strings reads a length-prefixed string slice; a zero count decodes as
// nil, matching gob's omitted-empty semantics.
func (d *Decoder) Strings() []string {
	n := d.Len(1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.String()
	}
	if d.err != nil {
		return nil
	}
	return out
}

// Len reads an element count and validates it against the remaining
// input, assuming each element costs at least minBytes on the wire. It
// is the guard every slice decode must pass before allocating: a hostile
// count can never make the decoder allocate more than the frame's own
// size. Returns 0 (with the error set) on violation.
func (d *Decoder) Len(minBytes int) int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if n > uint64(math.MaxInt32) || n*uint64(minBytes) > uint64(d.Remaining()) {
		d.fail(fmt.Errorf("%w: count %d exceeds %d remaining bytes", ErrCorrupt, n, d.Remaining()))
		return 0
	}
	return int(n)
}

// Close verifies the frame was consumed exactly: undecoded trailing bytes
// are as corrupt as truncation.
func (d *Decoder) Close() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		d.fail(fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.buf)-d.off))
	}
	return d.err
}
