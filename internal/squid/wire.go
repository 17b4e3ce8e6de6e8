package squid

import (
	"math"

	"squid/internal/chord"
	"squid/internal/keyspace"
	"squid/internal/sfc"
	"squid/internal/telemetry"
	"squid/internal/transport"
	"squid/internal/wire"
)

// Binary wire codecs for the squid engine's message set — ClusterQueryMsg
// and SubResultMsg are the per-query hot path, ReplicaMsg the
// replication delta, the rest ride along so a whole client interaction
// stays binary. Tags live in the squid range (32-63, see
// wire.TagSquidBase) and are frozen like the chord set; gob is the test
// oracle via the equivalence tests in wire_equiv_test.go.
//
// Layout conventions follow internal/chord/wire.go: uniform 64-bit hashes
// (ring and node IDs) are fixed 8-byte words; cluster prefixes are
// varints — a prefix is the right-aligned first Level*Dims bits of a
// curve index (sfc.Cluster), so at hot-path refinement depths it is a
// small integer, not a uniform word; QIDs/tokens/counts/levels are
// varints, strings are length-prefixed. TraceRef and Span are nested
// typed fields, encoded inline without a tag.
const (
	tagPublishMsg = wire.TagSquidBase + iota
	tagUnpublishMsg
	_ // TagSquidBase+2, retired with LookupMsg: never reuse
	tagClusterQueryMsg
	_ // TagSquidBase+4, retired with QueryAckMsg: never reuse
	_ // TagSquidBase+5, retired with BatchMsg: never reuse
	tagQueryShedMsg
	tagSubResultMsg
	tagReplicaMsg
	tagClientPublishMsg
	tagClientUnpublishMsg
	tagClientQueryMsg
	tagClientResultMsg
	tagElement
	tagElements
	tagKeyspaceQuery
	tagKeyspaceTerm
	_ // TagSquidBase+17, retired with PartialResultMsg: never reuse
	tagQueryCancelMsg
)

//lint:allocfree
func encodeElement(e *wire.Encoder, el Element) {
	e.Strings(el.Values)
	e.String(el.Data)
}

func decodeElement(d *wire.Decoder) Element {
	var el Element
	el.Values = d.Strings()
	el.Data = d.String()
	return el
}

//lint:allocfree
func encodeElements(e *wire.Encoder, els []Element) {
	e.Uvarint(uint64(len(els)))
	for _, el := range els {
		encodeElement(e, el)
	}
}

// decodeElements decodes a list bound for a Store (replica items,
// handover buckets, a store image): every string is its own copy, so a
// stored element never pins the frame it arrived in.
func decodeElements(d *wire.Decoder) []Element {
	n := d.Len(2) // ≥ values count + data length
	if n == 0 {
		return nil
	}
	out := make([]Element, n)
	for i := range out {
		out[i] = decodeElement(d)
	}
	return out
}

// decodeMatches decodes a transient result list — the matches of a
// SubResultMsg or ClientResultMsg — in three
// allocations whatever its length: the []Element, one []string slab for
// every element's Values, and one shared copy of the list's bytes that
// every string slices. A caller holding one match holds its batch's
// bytes, so store-bound lists use decodeElements instead.
func decodeMatches(d *wire.Decoder) []Element {
	n := d.Len(2) // ≥ values count + data length
	if n == 0 {
		return nil
	}
	out := make([]Element, n)
	d.Share()
	var slab []string
	for i := range out {
		el := &out[i]
		if k := d.Len(1); k > 0 {
			if len(slab) < k {
				// Size for every element left at this one's width, but
				// never past the frame: each value costs ≥ 1 byte, so a
				// hostile count cannot outgrow the input.
				slab = make([]string, max(k, min(k*(n-i), d.Remaining())))
			}
			el.Values = slab[:k:k]
			slab = slab[k:]
			for j := range el.Values {
				el.Values[j] = d.String()
			}
		}
		el.Data = d.String()
	}
	d.Unshare()
	return out
}

// encodeSubResult writes a report with the matches of every report linked
// behind it flattened into one list, as encodeElements lays it out.
//
//lint:allocfree
func encodeSubResult(e *wire.Encoder, m *SubResultMsg) {
	e.Uvarint(uint64(m.QID))
	e.Uvarint(m.Token)
	n := 0
	for r := m; r != nil; r = r.next {
		n += len(r.Matches)
	}
	e.Uvarint(uint64(n))
	for r := m; r != nil; r = r.next {
		for _, el := range r.Matches {
			encodeElement(e, el)
		}
	}
	e.Bool(m.Incomplete)
	encodeSpans(e, m.Spans)
}

//lint:allocfree
func encodeTerm(e *wire.Encoder, t keyspace.Term) {
	e.Uvarint(uint64(t.Kind))
	e.String(t.Value)
	e.String(t.Lo)
	e.String(t.Hi)
}

func decodeTerm(d *wire.Decoder) keyspace.Term {
	var t keyspace.Term
	t.Kind = keyspace.TermKind(d.Uvarint())
	t.Value = d.String()
	t.Lo = d.String()
	t.Hi = d.String()
	return t
}

//lint:allocfree
func encodeQuery(e *wire.Encoder, q keyspace.Query) {
	e.Uvarint(uint64(len(q)))
	for _, t := range q {
		encodeTerm(e, t)
	}
}

func decodeQuery(d *wire.Decoder) keyspace.Query {
	n := d.Len(4) // kind + three string lengths
	if n == 0 {
		return nil
	}
	q := make(keyspace.Query, n)
	for i := range q {
		q[i] = decodeTerm(d)
	}
	return q
}

//lint:allocfree
func encodeTraceRef(e *wire.Encoder, r telemetry.TraceRef) {
	e.Uvarint(r.Parent)
	e.Int(int64(r.Depth))
	e.Uvarint(uint64(r.Mode))
}

func decodeTraceRef(d *wire.Decoder) telemetry.TraceRef {
	var r telemetry.TraceRef
	r.Parent = d.Uvarint()
	r.Depth = int(d.Int())
	r.Mode = telemetry.TraceMode(d.Uvarint())
	return r
}

//lint:allocfree
func encodeSpans(e *wire.Encoder, spans []telemetry.Span) {
	e.Uvarint(uint64(len(spans)))
	for _, s := range spans {
		e.Uvarint(uint64(s.QID))
		e.Uvarint(s.ID)
		e.Uvarint(s.Parent)
		e.Int(int64(s.Depth))
		e.U64(s.Node)
		e.String(s.Addr)
		e.String(s.Kind)
		e.Uvarint(s.Prefix)
		e.Int(int64(s.Level))
		e.Int(int64(s.Clusters))
		e.Int(int64(s.Local))
		e.Int(int64(s.Children))
		e.Int(int64(s.Matches))
		e.Int(int64(s.Retries))
		e.Bool(s.Abandoned)
		e.Int(s.StartNS)
		e.Int(s.EndNS)
	}
}

func decodeSpans(d *wire.Decoder) []telemetry.Span {
	n := d.Len(24) // one fixed word (Node) plus the varint/flag floor
	if n == 0 {
		return nil
	}
	out := make([]telemetry.Span, n)
	for i := range out {
		s := &out[i]
		s.QID = telemetry.QueryID(d.Uvarint())
		s.ID = d.Uvarint()
		s.Parent = d.Uvarint()
		s.Depth = int(d.Int())
		s.Node = d.U64()
		s.Addr = d.String()
		s.Kind = d.String()
		s.Prefix = d.Uvarint()
		s.Level = int(d.Int())
		s.Clusters = int(d.Int())
		s.Local = int(d.Int())
		s.Children = int(d.Int())
		s.Matches = int(d.Int())
		s.Retries = int(d.Int())
		s.Abandoned = d.Bool()
		s.StartNS = d.Int()
		s.EndNS = d.Int()
	}
	return out
}

//lint:allocfree
func encodeClusterQuery(e *wire.Encoder, m *ClusterQueryMsg) {
	e.Uvarint(uint64(m.QID))
	encodeQuery(e, m.Query)
	e.Uvarint(uint64(len(m.Clusters)))
	for _, c := range m.Clusters {
		e.Uvarint(c.Prefix)
		e.Int(int64(c.Level))
		e.Bool(c.Complete)
	}
	e.String(string(m.ReplyTo))
	e.Uvarint(m.Token)
	if m.Keep > 0 {
		e.Uvarint(clusterCapped)
		e.Uvarint(uint64(m.Keep))
		e.Uvarint(m.From)
	} else {
		e.Uvarint(0)
	}
	encodeTraceRef(e, m.Trace)
}

// clusterCapped is the one flag of ClusterQueryMsg's flags field: a page
// cap, whose Keep and From follow. Bit 0 was the retired Stream flag. An
// uncapped message's flags are the one byte 0, exactly the Stream false
// of the version-3 layout.
const clusterCapped = 2

// decodeClusterQuery fills a pooled message, which the receiving handler
// owns.
func decodeClusterQuery(d *wire.Decoder) *ClusterQueryMsg {
	m := clusterQueries.Get()
	m.QID = QueryID(d.Uvarint())
	m.Query = decodeQuery(d)
	if n := d.Len(3); n > 0 { // prefix varint + level + flag
		m.Clusters = make([]sfc.Refined, n)
		for i := range m.Clusters {
			c := &m.Clusters[i]
			c.Prefix = d.Uvarint()
			c.Level = int(d.Int())
			c.Complete = d.Bool()
		}
	}
	m.ReplyTo = transport.Addr(d.String())
	m.Token = d.Uvarint()
	flags := d.Uvarint()
	if flags&^clusterCapped != 0 {
		d.Corrupt()
	}
	if flags&clusterCapped != 0 {
		keep := d.Uvarint()
		if keep == 0 || keep > math.MaxInt {
			d.Corrupt()
		}
		m.Keep, m.From = int(keep), d.Uvarint()
	}
	m.Trace = decodeTraceRef(d)
	return m
}

func init() {
	wire.Register(tagPublishMsg, PublishMsg{},
		func(e *wire.Encoder, v any) { encodeElement(e, v.(PublishMsg).Elem) },
		func(d *wire.Decoder) any { return PublishMsg{Elem: decodeElement(d)} })
	wire.Register(tagUnpublishMsg, UnpublishMsg{},
		func(e *wire.Encoder, v any) {
			m := v.(UnpublishMsg)
			encodeElement(e, m.Elem)
			e.Bool(m.Replica)
		},
		func(d *wire.Decoder) any {
			var m UnpublishMsg
			m.Elem = decodeElement(d)
			m.Replica = d.Bool()
			return m
		})
	wire.Register(tagClusterQueryMsg, (*ClusterQueryMsg)(nil),
		func(e *wire.Encoder, v any) { encodeClusterQuery(e, v.(*ClusterQueryMsg)) },
		func(d *wire.Decoder) any { return decodeClusterQuery(d) })
	wire.Register(tagQueryShedMsg, QueryShedMsg{},
		func(e *wire.Encoder, v any) {
			m := v.(QueryShedMsg)
			e.Uvarint(uint64(m.QID))
			e.Uvarint(m.Token)
			e.Int(m.RetryAfterMS)
		},
		func(d *wire.Decoder) any {
			var m QueryShedMsg
			m.QID = QueryID(d.Uvarint())
			m.Token = d.Uvarint()
			m.RetryAfterMS = d.Int()
			return m
		})
	wire.Register(tagSubResultMsg, (*SubResultMsg)(nil),
		func(e *wire.Encoder, v any) { encodeSubResult(e, v.(*SubResultMsg)) },
		func(d *wire.Decoder) any {
			m := subResults.Get()
			m.QID = QueryID(d.Uvarint())
			m.Token = d.Uvarint()
			m.Matches = decodeMatches(d)
			m.Incomplete = d.Bool()
			m.Spans = decodeSpans(d)
			return m
		})
	wire.Register(tagReplicaMsg, ReplicaMsg{},
		func(e *wire.Encoder, v any) {
			m := v.(ReplicaMsg)
			e.Uvarint(uint64(len(m.Items)))
			for _, it := range m.Items {
				e.U64(uint64(it.Key))
				e.Any(it.Value)
			}
		},
		func(d *wire.Decoder) any {
			var m ReplicaMsg
			if n := d.Len(9); n > 0 {
				m.Items = make([]chord.Item, n)
				for i := range m.Items {
					m.Items[i] = chord.Item{Key: chord.ID(d.U64()), Value: d.Any()}
				}
			}
			return m
		})
	wire.Register(tagClientPublishMsg, ClientPublishMsg{},
		func(e *wire.Encoder, v any) { encodeElement(e, v.(ClientPublishMsg).Elem) },
		func(d *wire.Decoder) any { return ClientPublishMsg{Elem: decodeElement(d)} })
	wire.Register(tagClientUnpublishMsg, ClientUnpublishMsg{},
		func(e *wire.Encoder, v any) { encodeElement(e, v.(ClientUnpublishMsg).Elem) },
		func(d *wire.Decoder) any { return ClientUnpublishMsg{Elem: decodeElement(d)} })
	wire.Register(tagClientQueryMsg, ClientQueryMsg{},
		func(e *wire.Encoder, v any) {
			m := v.(ClientQueryMsg)
			e.String(m.Query)
			e.String(string(m.ReplyTo))
			e.Uvarint(m.Token)
			e.Uvarint(uint64(m.Limit))
		},
		func(d *wire.Decoder) any {
			var m ClientQueryMsg
			m.Query = d.String()
			m.ReplyTo = transport.Addr(d.String())
			m.Token = d.Uvarint()
			m.Limit = int(d.Uvarint())
			return m
		})
	wire.Register(tagClientResultMsg, ClientResultMsg{},
		func(e *wire.Encoder, v any) {
			m := v.(ClientResultMsg)
			e.Uvarint(m.Token)
			e.Uvarint(uint64(m.QID))
			encodeElements(e, m.Matches)
			e.String(m.Err)
		},
		func(d *wire.Decoder) any {
			var m ClientResultMsg
			m.Token = d.Uvarint()
			m.QID = QueryID(d.Uvarint())
			m.Matches = decodeMatches(d)
			m.Err = d.String()
			return m
		})
	wire.Register(tagElement, Element{},
		func(e *wire.Encoder, v any) { encodeElement(e, v.(Element)) },
		func(d *wire.Decoder) any { return decodeElement(d) })
	wire.Register(tagElements, []Element{},
		func(e *wire.Encoder, v any) { encodeElements(e, v.([]Element)) },
		func(d *wire.Decoder) any { return decodeElements(d) })
	wire.Register(tagKeyspaceQuery, keyspace.Query{},
		func(e *wire.Encoder, v any) { encodeQuery(e, v.(keyspace.Query)) },
		func(d *wire.Decoder) any { return decodeQuery(d) })
	wire.Register(tagKeyspaceTerm, keyspace.Term{},
		func(e *wire.Encoder, v any) { encodeTerm(e, v.(keyspace.Term)) },
		func(d *wire.Decoder) any { return decodeTerm(d) })
	wire.Register(tagQueryCancelMsg, QueryCancelMsg{},
		func(e *wire.Encoder, v any) {
			m := v.(QueryCancelMsg)
			e.Uvarint(uint64(m.QID))
			e.Uvarint(m.Token)
			e.String(string(m.ReplyTo))
		},
		func(d *wire.Decoder) any {
			var m QueryCancelMsg
			m.QID = QueryID(d.Uvarint())
			m.Token = d.Uvarint()
			m.ReplyTo = transport.Addr(d.String())
			return m
		})
}
