package chord

import (
	"squid/internal/transport"
	"squid/internal/wire"
)

// Binary wire codecs for the chord protocol messages — the stabilize and
// finger/lookup RPCs are hot-path (every tick, every query hop), the join
// family rides along so a whole membership handshake stays on one codec.
// Tags live in the chord range (8-31, see wire.TagChordBase) and are
// frozen: a layout change means a new tag, not a new layout under the old
// one. Each codec is equivalence-tested against gob in wire_equiv_test.go.
//
// Layout conventions: ring identifiers (ID) and trace tags are fixed
// 8-byte words; hop counts, loads and element counts are varints;
// addresses are length-prefixed strings; interface-valued payloads go
// through Encoder.Any (registered dynamic types only — an unregistered
// payload makes the transport refuse the whole envelope).
const (
	tagFindMsg = wire.TagChordBase + iota
	tagFoundMsg
	tagRouteMsg
	tagJoinReqMsg
	tagJoinAckMsg
	tagJoinNackMsg
	tagJoinConfirmMsg
	tagHandoffMsg
	tagNotifyMsg
	tagGetStateMsg
	tagStateMsg
	tagLeaveMsg
	tagSuccChangedMsg
	tagAppMsg
	tagNodeRef
	tagItems
)

//lint:allocfree
func encodeNodeRef(e *wire.Encoder, r NodeRef) {
	e.U64(uint64(r.ID))
	e.String(string(r.Addr))
}

func decodeNodeRef(d *wire.Decoder) NodeRef {
	id := ID(d.U64())
	addr := d.String()
	return NodeRef{ID: id, Addr: transport.Addr(addr)}
}

//lint:allocfree
func encodeNodeRefs(e *wire.Encoder, rs []NodeRef) {
	e.Uvarint(uint64(len(rs)))
	for _, r := range rs {
		encodeNodeRef(e, r)
	}
}

func decodeNodeRefs(d *wire.Decoder) []NodeRef {
	n := d.Len(9) // 8-byte id + ≥1-byte addr length
	if n == 0 {
		return nil
	}
	out := make([]NodeRef, n)
	for i := range out {
		out[i] = decodeNodeRef(d)
	}
	return out
}

//lint:allocfree
func encodeItems(e *wire.Encoder, items []Item) {
	e.Uvarint(uint64(len(items)))
	for _, it := range items {
		e.U64(uint64(it.Key))
		e.Any(it.Value)
	}
}

func decodeItems(d *wire.Decoder) []Item {
	n := d.Len(9) // 8-byte key + ≥1-byte value tag
	if n == 0 {
		return nil
	}
	out := make([]Item, n)
	for i := range out {
		out[i] = Item{Key: ID(d.U64()), Value: d.Any()}
	}
	return out
}

func init() {
	wire.Register(tagFindMsg, (*FindMsg)(nil),
		func(e *wire.Encoder, v any) {
			m := v.(*FindMsg)
			e.U64(uint64(m.Target))
			e.Uvarint(m.Token)
			e.String(string(m.ReplyTo))
			e.Int(int64(m.Hops))
			e.U64(m.Trace)
		},
		func(d *wire.Decoder) any {
			m := finds.Get()
			m.Target = ID(d.U64())
			m.Token = d.Uvarint()
			m.ReplyTo = transport.Addr(d.String())
			m.Hops = int(d.Int())
			m.Trace = d.U64()
			return m
		})
	wire.Register(tagFoundMsg, (*FoundMsg)(nil),
		func(e *wire.Encoder, v any) {
			m := v.(*FoundMsg)
			e.Uvarint(m.Token)
			encodeNodeRef(e, m.Owner)
			encodeNodeRef(e, m.Pred)
			e.Int(int64(m.Hops))
			e.U64(m.Trace)
		},
		func(d *wire.Decoder) any {
			m := founds.Get()
			m.Token = d.Uvarint()
			m.Owner = decodeNodeRef(d)
			m.Pred = decodeNodeRef(d)
			m.Hops = int(d.Int())
			m.Trace = d.U64()
			return m
		})
	wire.Register(tagRouteMsg, (*RouteMsg)(nil),
		func(e *wire.Encoder, v any) {
			m := v.(*RouteMsg)
			e.U64(uint64(m.Key))
			e.String(string(m.From))
			e.Any(m.Payload)
			e.Int(int64(m.Hops))
			e.U64(m.Trace)
		},
		func(d *wire.Decoder) any {
			m := routes.Get()
			m.Key = ID(d.U64())
			m.From = transport.Addr(d.String())
			m.Payload = d.Any()
			m.Hops = int(d.Int())
			m.Trace = d.U64()
			return m
		})
	wire.Register(tagJoinReqMsg, JoinReqMsg{},
		func(e *wire.Encoder, v any) {
			m := v.(JoinReqMsg)
			encodeNodeRef(e, m.New)
			e.Int(int64(m.Hops))
		},
		func(d *wire.Decoder) any {
			var m JoinReqMsg
			m.New = decodeNodeRef(d)
			m.Hops = int(d.Int())
			return m
		})
	wire.Register(tagJoinAckMsg, JoinAckMsg{},
		func(e *wire.Encoder, v any) {
			m := v.(JoinAckMsg)
			encodeNodeRef(e, m.Pred)
			encodeNodeRefs(e, m.Succs)
			encodeItems(e, m.Items)
			e.Bool(m.Deferred)
		},
		func(d *wire.Decoder) any {
			var m JoinAckMsg
			m.Pred = decodeNodeRef(d)
			m.Succs = decodeNodeRefs(d)
			m.Items = decodeItems(d)
			m.Deferred = d.Bool()
			return m
		})
	wire.Register(tagJoinNackMsg, JoinNackMsg{},
		func(e *wire.Encoder, v any) {
			e.String(v.(JoinNackMsg).Reason)
		},
		func(d *wire.Decoder) any {
			return JoinNackMsg{Reason: d.String()}
		})
	wire.Register(tagJoinConfirmMsg, JoinConfirmMsg{},
		func(e *wire.Encoder, v any) {
			m := v.(JoinConfirmMsg)
			encodeNodeRef(e, m.New)
			e.Int(int64(m.Hops))
		},
		func(d *wire.Decoder) any {
			var m JoinConfirmMsg
			m.New = decodeNodeRef(d)
			m.Hops = int(d.Int())
			return m
		})
	wire.Register(tagHandoffMsg, HandoffMsg{},
		func(e *wire.Encoder, v any) {
			m := v.(HandoffMsg)
			encodeNodeRef(e, m.Pred)
			encodeItems(e, m.Items)
		},
		func(d *wire.Decoder) any {
			var m HandoffMsg
			m.Pred = decodeNodeRef(d)
			m.Items = decodeItems(d)
			return m
		})
	wire.Register(tagNotifyMsg, NotifyMsg{},
		func(e *wire.Encoder, v any) {
			encodeNodeRef(e, v.(NotifyMsg).Candidate)
		},
		func(d *wire.Decoder) any {
			return NotifyMsg{Candidate: decodeNodeRef(d)}
		})
	wire.Register(tagGetStateMsg, GetStateMsg{},
		func(e *wire.Encoder, v any) {
			m := v.(GetStateMsg)
			e.Uvarint(m.Token)
			e.String(string(m.ReplyTo))
		},
		func(d *wire.Decoder) any {
			var m GetStateMsg
			m.Token = d.Uvarint()
			m.ReplyTo = transport.Addr(d.String())
			return m
		})
	wire.Register(tagStateMsg, StateMsg{},
		func(e *wire.Encoder, v any) {
			m := v.(StateMsg)
			e.Uvarint(m.Token)
			encodeNodeRef(e, m.Self)
			encodeNodeRef(e, m.Pred)
			encodeNodeRefs(e, m.Succs)
			e.Int(int64(m.Load))
		},
		func(d *wire.Decoder) any {
			var m StateMsg
			m.Token = d.Uvarint()
			m.Self = decodeNodeRef(d)
			m.Pred = decodeNodeRef(d)
			m.Succs = decodeNodeRefs(d)
			m.Load = int(d.Int())
			return m
		})
	wire.Register(tagLeaveMsg, LeaveMsg{},
		func(e *wire.Encoder, v any) {
			m := v.(LeaveMsg)
			encodeNodeRef(e, m.Leaving)
			encodeNodeRef(e, m.Pred)
			encodeItems(e, m.Items)
		},
		func(d *wire.Decoder) any {
			var m LeaveMsg
			m.Leaving = decodeNodeRef(d)
			m.Pred = decodeNodeRef(d)
			m.Items = decodeItems(d)
			return m
		})
	wire.Register(tagSuccChangedMsg, SuccChangedMsg{},
		func(e *wire.Encoder, v any) {
			encodeNodeRef(e, v.(SuccChangedMsg).NewSucc)
		},
		func(d *wire.Decoder) any {
			return SuccChangedMsg{NewSucc: decodeNodeRef(d)}
		})
	wire.Register(tagAppMsg, AppMsg{},
		func(e *wire.Encoder, v any) {
			m := v.(AppMsg)
			e.String(string(m.From))
			e.Any(m.Payload)
		},
		func(d *wire.Decoder) any {
			var m AppMsg
			m.From = transport.Addr(d.String())
			m.Payload = d.Any()
			return m
		})
	wire.Register(tagNodeRef, NodeRef{},
		func(e *wire.Encoder, v any) { encodeNodeRef(e, v.(NodeRef)) },
		func(d *wire.Decoder) any { return decodeNodeRef(d) })
	wire.Register(tagItems, []Item{},
		func(e *wire.Encoder, v any) { encodeItems(e, v.([]Item)) },
		func(d *wire.Decoder) any { return decodeItems(d) })
}
