package wire

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
)

// Tag assignments. Tags are the wire-stable names of message layouts:
// once shipped, a tag's layout is frozen — a layout change means a new
// tag with the old decoder retained for compatibility (DESIGN.md §4i).
//
//	0        reserved; never registered, rejected on decode
//	1        nil interface value (Any)
//	2-7      reserved
//	8-31     internal/chord
//	32-63    internal/squid
//	64-      future subsystems
const (
	// TagNil encodes a nil interface value inside Any.
	TagNil = 1

	// Chord protocol messages (assigned in internal/chord).
	TagChordBase = 8
	// Squid protocol messages (assigned in internal/squid).
	TagSquidBase = 32
)

// EncodeFunc appends one registered type's fixed layout. v's dynamic type
// is guaranteed to be the codec's registered type.
type EncodeFunc func(e *Encoder, v any)

// DecodeFunc parses one registered type's layout and returns the decoded
// value (same concrete type that was encoded). Errors surface through the
// decoder's sticky error.
type DecodeFunc func(d *Decoder) any

// Codec binds a tag to one concrete type's encode/decode pair.
type Codec struct {
	Tag    uint64
	Type   reflect.Type
	Encode EncodeFunc
	Decode DecodeFunc
}

var (
	regMu sync.RWMutex
	//lint:guarded-by regMu
	byType = map[reflect.Type]*Codec{}
	//lint:guarded-by regMu
	byTag = map[uint64]*Codec{}
)

// Register binds tag to prototype's concrete type. It is called from
// protocol packages' init functions; a type without a codec cannot cross
// a TCP connection. Duplicate tags or types panic: the registry is a
// compile-time contract, not runtime configuration.
func Register(tag uint64, prototype any, enc EncodeFunc, dec DecodeFunc) {
	if tag <= TagNil {
		panic(fmt.Sprintf("wire: tag %d is reserved", tag))
	}
	t := reflect.TypeOf(prototype)
	if t == nil {
		panic("wire: nil prototype")
	}
	if enc == nil || dec == nil {
		panic(fmt.Sprintf("wire: nil codec func for %v", t))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if c, ok := byTag[tag]; ok {
		panic(fmt.Sprintf("wire: tag %d already bound to %v", tag, c.Type))
	}
	if c, ok := byType[t]; ok {
		panic(fmt.Sprintf("wire: type %v already bound to tag %d", t, c.Tag))
	}
	c := &Codec{Tag: tag, Type: t, Encode: enc, Decode: dec}
	byTag[tag] = c
	byType[t] = c
}

// Lookup returns the codec for v's dynamic type, or nil.
//
//lint:allow-allocfree RLock and map read allocate nothing; reflect.TypeOf of an interface is a header read
func Lookup(v any) *Codec {
	regMu.RLock()
	defer regMu.RUnlock()
	return byType[reflect.TypeOf(v)]
}

// ByTag returns the codec for a wire tag, or nil.
//
//lint:allow-allocfree RLock and map read allocate nothing
func ByTag(tag uint64) *Codec {
	regMu.RLock()
	defer regMu.RUnlock()
	return byTag[tag]
}

// Codecs returns every registered codec in ascending tag order. The
// equivalence tests iterate it so a codec registered without test
// coverage fails loudly instead of rotting silently.
func Codecs() []*Codec {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]*Codec, 0, len(byTag))
	for _, c := range byTag {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tag < out[j].Tag })
	return out
}

// EncodeMessage appends tag + body for msg. It reports false — leaving
// possibly partial bytes in the buffer, so Reset before reuse — when
// msg's type, or a nested dynamic value inside it, has no codec; the
// transport then refuses to send the message.
//
//lint:allocfree
func EncodeMessage(e *Encoder, msg any) bool {
	c := Lookup(msg)
	if c == nil {
		return false
	}
	e.Uvarint(c.Tag)
	c.Encode(e, msg)
	return e.err == nil
}

// DecodeMessage parses one tagged message from a complete frame with a
// fresh decoder. A loop over many frames should reuse one Decoder and
// call Message instead.
func DecodeMessage(b []byte) (any, error) { return new(Decoder).Message(b) }

// Message re-aims d at a complete frame and parses one tagged message
// from it: Reset, decode, Close. The decoded value never aliases b, so
// the caller may reuse b for the next frame.
func (d *Decoder) Message(b []byte) (any, error) {
	d.Reset(b)
	tag := d.Uvarint()
	if d.err != nil {
		return nil, d.err
	}
	c := ByTag(tag)
	if c == nil {
		return nil, fmt.Errorf("%w: unknown tag %d", ErrCorrupt, tag)
	}
	v := c.Decode(d)
	if err := d.Close(); err != nil {
		return nil, err
	}
	return v, nil
}

// Any encodes a dynamically typed value (an interface field such as
// chord.RouteMsg.Payload): tag + body, or TagNil for nil. An
// unregistered dynamic type poisons the encoder so EncodeMessage reports
// false for the whole envelope — a message is encoded whole or not at
// all.
//
//lint:allocfree
func (e *Encoder) Any(v any) {
	if v == nil {
		e.Uvarint(TagNil)
		return
	}
	c := Lookup(v)
	if c == nil {
		//lint:allow-allocfree error path: the message is refused
		e.fail(fmt.Errorf("wire: no codec for %T", v))
		return
	}
	e.Uvarint(c.Tag)
	c.Encode(e, v)
}

// Any decodes a dynamically typed value written by Encoder.Any.
func (d *Decoder) Any() any {
	tag := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if tag == TagNil {
		return nil
	}
	c := ByTag(tag)
	if c == nil {
		d.fail(fmt.Errorf("%w: unknown tag %d", ErrCorrupt, tag))
		return nil
	}
	return c.Decode(d)
}
