package squid_test

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"squid/internal/chord"
	"squid/internal/keyspace"
	"squid/internal/sfc"
	"squid/internal/squid"
	"squid/internal/telemetry"
	"squid/internal/transport"
	"squid/internal/wire"
)

// The binary codec's oracle: every registered codec must round-trip
// randomized instances identically through (a) the binary format and (b)
// gob, carrying the message as an interface value, and both decodes must
// agree. The generator table below is keyed by concrete type; the test
// FAILS if a codec is registered without a generator, so a message type
// added to the wire registry cannot dodge equivalence coverage (the same
// discipline as the sfc table kernel vs the Skilling reference).

// wireGen builds one randomized instance of a registered codec's type.
type wireGen func(r *rand.Rand) any

func genWord(r *rand.Rand) string {
	words := []string{"", "computer", "network", "grid", "storage", "q", "résumé", "a-very-long-keyword-value-for-padding"}
	return words[r.Intn(len(words))]
}

func genAddr(r *rand.Rand) transport.Addr {
	return transport.Addr(fmt.Sprintf("10.0.%d.%d:%d", r.Intn(256), r.Intn(256), 1024+r.Intn(60000)))
}

func genNodeRef(r *rand.Rand) chord.NodeRef {
	if r.Intn(8) == 0 {
		return chord.NodeRef{}
	}
	return chord.NodeRef{ID: chord.ID(r.Uint64()), Addr: genAddr(r)}
}

func genNodeRefs(r *rand.Rand) []chord.NodeRef {
	n := r.Intn(4)
	if n == 0 {
		return nil
	}
	out := make([]chord.NodeRef, n)
	for i := range out {
		out[i] = genNodeRef(r)
	}
	return out
}

func genElement(r *rand.Rand) squid.Element {
	vals := make([]string, 1+r.Intn(3))
	for i := range vals {
		vals[i] = genWord(r)
	}
	return squid.Element{Values: vals, Data: genWord(r)}
}

func genElements(r *rand.Rand) []squid.Element {
	n := r.Intn(4)
	if n == 0 {
		return nil
	}
	out := make([]squid.Element, n)
	for i := range out {
		out[i] = genElement(r)
	}
	return out
}

func genItems(r *rand.Rand) []chord.Item {
	n := r.Intn(4)
	if n == 0 {
		return nil
	}
	out := make([]chord.Item, n)
	for i := range out {
		out[i] = chord.Item{Key: chord.ID(r.Uint64()), Value: genElements(r)}
		if out[i].Value.([]squid.Element) == nil {
			// gob cannot carry a nil interface-typed slice value
			// distinguishably; keep the dynamic value non-nil.
			out[i].Value = []squid.Element{genElement(r)}
		}
	}
	return out
}

func genTerm(r *rand.Rand) keyspace.Term {
	switch r.Intn(4) {
	case 0:
		return keyspace.Wildcard()
	case 1:
		return keyspace.Exact(genWord(r))
	case 2:
		return keyspace.Prefix(genWord(r))
	default:
		return keyspace.Range(genWord(r), genWord(r))
	}
}

func genQuery(r *rand.Rand) keyspace.Query {
	n := 1 + r.Intn(3)
	q := make(keyspace.Query, n)
	for i := range q {
		q[i] = genTerm(r)
	}
	return q
}

func genTraceRef(r *rand.Rand) telemetry.TraceRef {
	return telemetry.TraceRef{
		Parent: uint64(r.Intn(1 << 20)),
		Depth:  r.Intn(12),
		Mode:   telemetry.TraceMode(r.Intn(3)),
	}
}

func genSpans(r *rand.Rand) []telemetry.Span {
	n := r.Intn(3)
	if n == 0 {
		return nil
	}
	out := make([]telemetry.Span, n)
	for i := range out {
		out[i] = telemetry.Span{
			QID: telemetry.QueryID(r.Intn(1 << 16)), ID: uint64(r.Intn(1 << 16)),
			Parent: uint64(r.Intn(1 << 16)), Depth: r.Intn(10),
			Node: r.Uint64(), Addr: string(genAddr(r)), Kind: "cluster",
			Prefix: r.Uint64(), Level: r.Intn(32), Clusters: r.Intn(10),
			Local: r.Intn(10), Children: r.Intn(10), Matches: r.Intn(100),
			Retries: r.Intn(3), Abandoned: r.Intn(4) == 0,
			StartNS: r.Int63(), EndNS: r.Int63(),
		}
	}
	return out
}

// refined builds one cluster of a ClusterQueryMsg.
func refined(prefix uint64, level int, complete bool) sfc.Refined {
	return sfc.Refined{Cluster: sfc.Cluster{Prefix: prefix, Level: level}, Complete: complete}
}

func genClusters(r *rand.Rand) []sfc.Refined {
	n := 1 + r.Intn(5)
	out := make([]sfc.Refined, n)
	for i := range out {
		out[i] = refined(r.Uint64(), r.Intn(64), r.Intn(2) == 0)
	}
	return out
}

func genClusterQuery(r *rand.Rand) *squid.ClusterQueryMsg {
	var keep int
	var from uint64
	if r.Intn(2) == 0 { // a Limit stream's page cap
		keep, from = 1+r.Intn(100), r.Uint64()>>r.Intn(64)
	}
	return &squid.ClusterQueryMsg{
		QID: telemetry.QueryID(r.Intn(1 << 20)), Query: genQuery(r),
		Clusters: genClusters(r), ReplyTo: genAddr(r),
		Token: uint64(r.Intn(1 << 20)),
		Keep:  keep, From: from,
		Trace: genTraceRef(r),
	}
}

// wireGens covers every registered codec tag. Adding a codec without
// adding a generator fails TestWireEquivalence's completeness check.
var wireGens = map[reflect.Type]wireGen{
	reflect.TypeOf(&chord.FindMsg{}): func(r *rand.Rand) any {
		return &chord.FindMsg{Target: chord.ID(r.Uint64()), Token: uint64(r.Intn(1 << 20)),
			ReplyTo: genAddr(r), Hops: r.Intn(40), Trace: r.Uint64()}
	},
	reflect.TypeOf(&chord.FoundMsg{}): func(r *rand.Rand) any {
		return &chord.FoundMsg{Token: uint64(r.Intn(1 << 20)), Owner: genNodeRef(r),
			Pred: genNodeRef(r), Hops: r.Intn(40), Trace: r.Uint64()}
	},
	reflect.TypeOf(&chord.RouteMsg{}): func(r *rand.Rand) any {
		return &chord.RouteMsg{Key: chord.ID(r.Uint64()), From: genAddr(r),
			Payload: squid.PublishMsg{Elem: genElement(r)}, Hops: r.Intn(40), Trace: r.Uint64()}
	},
	reflect.TypeOf(chord.JoinReqMsg{}): func(r *rand.Rand) any {
		return chord.JoinReqMsg{New: genNodeRef(r), Hops: r.Intn(8)}
	},
	reflect.TypeOf(chord.JoinAckMsg{}): func(r *rand.Rand) any {
		return chord.JoinAckMsg{Pred: genNodeRef(r), Succs: genNodeRefs(r),
			Items: genItems(r), Deferred: r.Intn(2) == 0}
	},
	reflect.TypeOf(chord.JoinNackMsg{}): func(r *rand.Rand) any {
		return chord.JoinNackMsg{Reason: genWord(r)}
	},
	reflect.TypeOf(chord.JoinConfirmMsg{}): func(r *rand.Rand) any {
		return chord.JoinConfirmMsg{New: genNodeRef(r), Hops: r.Intn(8)}
	},
	reflect.TypeOf(chord.HandoffMsg{}): func(r *rand.Rand) any {
		return chord.HandoffMsg{Pred: genNodeRef(r), Items: genItems(r)}
	},
	reflect.TypeOf(chord.NotifyMsg{}): func(r *rand.Rand) any {
		return chord.NotifyMsg{Candidate: genNodeRef(r)}
	},
	reflect.TypeOf(chord.GetStateMsg{}): func(r *rand.Rand) any {
		return chord.GetStateMsg{Token: uint64(r.Intn(1 << 20)), ReplyTo: genAddr(r)}
	},
	reflect.TypeOf(chord.StateMsg{}): func(r *rand.Rand) any {
		return chord.StateMsg{Token: uint64(r.Intn(1 << 20)), Self: genNodeRef(r),
			Pred: genNodeRef(r), Succs: genNodeRefs(r), Load: r.Intn(10000)}
	},
	reflect.TypeOf(chord.LeaveMsg{}): func(r *rand.Rand) any {
		return chord.LeaveMsg{Leaving: genNodeRef(r), Pred: genNodeRef(r), Items: genItems(r)}
	},
	reflect.TypeOf(chord.SuccChangedMsg{}): func(r *rand.Rand) any {
		return chord.SuccChangedMsg{NewSucc: genNodeRef(r)}
	},
	reflect.TypeOf(chord.AppMsg{}): func(r *rand.Rand) any {
		return chord.AppMsg{From: genAddr(r), Payload: genClusterQuery(r)}
	},
	reflect.TypeOf(chord.NodeRef{}): func(r *rand.Rand) any { return genNodeRef(r) },
	reflect.TypeOf([]chord.Item{}): func(r *rand.Rand) any {
		items := genItems(r)
		if items == nil {
			items = []chord.Item{{Key: chord.ID(r.Uint64()), Value: []squid.Element{genElement(r)}}}
		}
		return items
	},

	reflect.TypeOf(squid.PublishMsg{}): func(r *rand.Rand) any {
		return squid.PublishMsg{Elem: genElement(r)}
	},
	reflect.TypeOf(squid.UnpublishMsg{}): func(r *rand.Rand) any {
		return squid.UnpublishMsg{Elem: genElement(r), Replica: r.Intn(2) == 0}
	},
	reflect.TypeOf(&squid.ClusterQueryMsg{}): func(r *rand.Rand) any { return genClusterQuery(r) },
	reflect.TypeOf(squid.QueryShedMsg{}): func(r *rand.Rand) any {
		return squid.QueryShedMsg{QID: telemetry.QueryID(r.Intn(1 << 20)),
			Token: uint64(r.Intn(1 << 20)), RetryAfterMS: int64(r.Intn(5000))}
	},
	reflect.TypeOf(&squid.SubResultMsg{}): func(r *rand.Rand) any {
		return &squid.SubResultMsg{QID: telemetry.QueryID(r.Intn(1 << 20)),
			Token: uint64(r.Intn(1 << 20)), Matches: genElements(r),
			Incomplete: r.Intn(4) == 0, Spans: genSpans(r)}
	},
	reflect.TypeOf(squid.QueryCancelMsg{}): func(r *rand.Rand) any {
		return squid.QueryCancelMsg{QID: telemetry.QueryID(r.Intn(1 << 20)),
			Token: uint64(r.Intn(1 << 20)), ReplyTo: genAddr(r)}
	},
	reflect.TypeOf(squid.ReplicaMsg{}): func(r *rand.Rand) any {
		return squid.ReplicaMsg{Items: genItems(r)}
	},
	reflect.TypeOf(squid.ClientPublishMsg{}): func(r *rand.Rand) any {
		return squid.ClientPublishMsg{Elem: genElement(r)}
	},
	reflect.TypeOf(squid.ClientUnpublishMsg{}): func(r *rand.Rand) any {
		return squid.ClientUnpublishMsg{Elem: genElement(r)}
	},
	reflect.TypeOf(squid.ClientQueryMsg{}): func(r *rand.Rand) any {
		return squid.ClientQueryMsg{Query: "(comp*, *)", ReplyTo: genAddr(r), Token: uint64(r.Intn(1 << 20)), Limit: r.Intn(16)}
	},
	reflect.TypeOf(squid.ClientResultMsg{}): func(r *rand.Rand) any {
		return squid.ClientResultMsg{Token: uint64(r.Intn(1 << 20)),
			QID: telemetry.QueryID(r.Intn(1 << 20)), Matches: genElements(r), Err: genWord(r)}
	},
	reflect.TypeOf(squid.Element{}):   func(r *rand.Rand) any { return genElement(r) },
	reflect.TypeOf([]squid.Element{}): func(r *rand.Rand) any { return genElements(r) },
	reflect.TypeOf(keyspace.Query{}):  func(r *rand.Rand) any { return genQuery(r) },
	reflect.TypeOf(keyspace.Term{}):   func(r *rand.Rand) any { return genTerm(r) },
}

// The gob leg carries each message as an interface value, so gob must know
// every concrete type by name. Registration lives here, with the oracle:
// gob is not a wire format.
func init() {
	for typ := range wireGens {
		gob.Register(reflect.Zero(typ).Interface())
	}
}

// protocolCodec reports whether a codec belongs to the protocol tag
// ranges (as opposed to test-only registrations far above them).
func protocolCodec(c *wire.Codec) bool { return c.Tag < 1000 }

// kindName names a message kind independent of the form it is sent in,
// so moving a kind between value and pointer form keeps its subtest name.
func kindName(typ reflect.Type) string {
	if typ.Kind() == reflect.Pointer {
		typ = typ.Elem()
	}
	return typ.String()
}

func TestWireEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, c := range wire.Codecs() {
		if !protocolCodec(c) {
			continue
		}
		gen, ok := wireGens[c.Type]
		if !ok {
			t.Errorf("codec tag %d (%v) has no generator: every registered wire codec must be equivalence-tested", c.Tag, c.Type)
			continue
		}
		t.Run(kindName(c.Type), func(t *testing.T) {
			for i := 0; i < 200; i++ {
				msg := gen(r)
				if reflect.TypeOf(msg) != c.Type {
					t.Fatalf("generator for %v built %T", c.Type, msg)
				}

				// Binary round trip.
				var e wire.Encoder
				if !wire.EncodeMessage(&e, msg) {
					t.Fatalf("EncodeMessage declined %#v", msg)
				}
				gotBin, err := wire.DecodeMessage(e.Bytes())
				if err != nil {
					t.Fatalf("binary decode: %v\nmsg: %#v", err, msg)
				}
				if !reflect.DeepEqual(gotBin, msg) {
					t.Fatalf("binary round trip mismatch:\n got %#v\nwant %#v", gotBin, msg)
				}

				// Gob round trip, as an interface-valued envelope payload.
				var buf bytes.Buffer
				env := struct{ Payload any }{Payload: msg}
				if err := gob.NewEncoder(&buf).Encode(env); err != nil {
					t.Fatalf("gob encode: %v", err)
				}
				var back struct{ Payload any }
				if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
					t.Fatalf("gob decode: %v", err)
				}
				if !reflect.DeepEqual(back.Payload, msg) {
					t.Fatalf("gob round trip mismatch:\n got %#v\nwant %#v", back.Payload, msg)
				}

				// And the two decodes agree with each other.
				if !reflect.DeepEqual(gotBin, back.Payload) {
					t.Fatalf("codecs disagree:\n binary %#v\n gob    %#v", gotBin, back.Payload)
				}
			}
		})
	}
}

// TestWireRoundTrip pushes hand-built instances of the messages the system
// sends across TCP, nested payloads included, through the binary codec and
// checks exact reconstruction. A type that fails here would work in
// simulation and break real deployments.
func TestWireRoundTrip(t *testing.T) {
	ref := chord.NodeRef{ID: 42, Addr: "127.0.0.1:9999"}
	elem := squid.Element{Values: []string{"computer", "network"}, Data: "doc.pdf"}
	query := keyspace.Query{keyspace.Exact("a"), keyspace.Prefix("b"), keyspace.Wildcard(), keyspace.Range("1", "9")}

	msgs := []any{
		&chord.FindMsg{Target: 7, Token: 1, ReplyTo: "x", Hops: 3, Trace: 9},
		&chord.FoundMsg{Token: 1, Owner: ref, Pred: ref, Hops: 2, Trace: 9},
		&chord.RouteMsg{Key: 5, From: "y", Payload: squid.PublishMsg{Elem: elem}, Hops: 1, Trace: 4},
		chord.JoinReqMsg{New: ref, Hops: 1},
		chord.JoinAckMsg{Pred: ref, Succs: []chord.NodeRef{ref, ref}, Items: []chord.Item{{Key: 3, Value: []squid.Element{elem}}}},
		chord.JoinNackMsg{Reason: "collision"},
		chord.NotifyMsg{Candidate: ref},
		chord.GetStateMsg{Token: 2, ReplyTo: "z"},
		chord.StateMsg{Token: 2, Self: ref, Pred: ref, Succs: []chord.NodeRef{ref}, Load: 7},
		chord.LeaveMsg{Leaving: ref, Pred: ref, Items: []chord.Item{{Key: 1, Value: []squid.Element{elem}}}},
		chord.SuccChangedMsg{NewSucc: ref},
		&squid.ClusterQueryMsg{
			QID: 3, Query: query, Clusters: []sfc.Refined{refined(9, 2, true)},
			ReplyTo: "r", Token: 8,
		},
		squid.QueryShedMsg{QID: 3, Token: 8, RetryAfterMS: 25},
		&squid.SubResultMsg{QID: 3, Token: 8, Matches: []squid.Element{elem}},
		squid.ReplicaMsg{Items: []chord.Item{{Key: 4, Value: []squid.Element{elem}}}},
		squid.ClientPublishMsg{Elem: elem},
		squid.ClientQueryMsg{Query: "(a*, *)", ReplyTo: "r", Token: 6},
		squid.ClientResultMsg{Token: 6, Matches: []squid.Element{elem}, Err: "no"},
	}
	var e wire.Encoder
	for _, msg := range msgs {
		e.Reset()
		if !wire.EncodeMessage(&e, msg) {
			t.Errorf("%T: EncodeMessage declined %#v", msg, msg)
			continue
		}
		back, err := wire.DecodeMessage(e.Bytes())
		if err != nil {
			t.Errorf("%T: decode: %v", msg, err)
			continue
		}
		if !reflect.DeepEqual(back, msg) {
			t.Errorf("%T: round trip mismatch:\n got %#v\nwant %#v", msg, back, msg)
		}
	}
}

// TestWireEncodeZeroAlloc pins the tentpole claim: steady-state encode of
// the hot-path messages allocates nothing.
func TestWireEncodeZeroAlloc(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	msgs := []any{
		genClusterQuery(r),
		&squid.SubResultMsg{QID: 9, Token: 4, Matches: genElements(r)},
		squid.QueryCancelMsg{QID: 9, Token: 4, ReplyTo: "10.0.0.1:4000"},
		chord.AppMsg{From: "10.0.0.1:4000", Payload: genClusterQuery(r)},
		chord.StateMsg{Token: 1, Self: genNodeRef(r), Pred: genNodeRef(r), Succs: genNodeRefs(r), Load: 12},
	}
	var e wire.Encoder
	for _, msg := range msgs {
		e.Reset()
		wire.EncodeMessage(&e, msg) // warm the buffer
		allocs := testing.AllocsPerRun(100, func() {
			e.Reset()
			if !wire.EncodeMessage(&e, msg) {
				t.Fatalf("EncodeMessage declined %T", msg)
			}
		})
		if allocs != 0 {
			t.Errorf("%T: %v allocs/op on encode, want 0", msg, allocs)
		}
	}
}

// TestWireClusterQueryGolden pins the uncapped ClusterQueryMsg layout to
// the bytes of wire version 3, whose Stream bool false is now the empty
// flags field: every unlimited query's messages keep their size to the
// byte. A flags value with an undefined bit — the retired Stream bit 0
// among them — or a cap bit with Keep 0, is corrupt.
func TestWireClusterQueryGolden(t *testing.T) {
	const prefix = "23ac02020204636f6d7000000000000002b4240601070a000d31302e302e302e313a373030312a"
	golden := &squid.ClusterQueryMsg{
		QID: 300, Query: keyspace.Query{keyspace.Prefix("comp"), keyspace.Wildcard()},
		Clusters: []sfc.Refined{refined(0x1234, 3, true), refined(7, 5, false)},
		ReplyTo:  "10.0.0.1:7001", Token: 42,
		Trace: telemetry.TraceRef{Parent: 9, Depth: 2, Mode: telemetry.TraceOn},
	}
	var e wire.Encoder
	if !wire.EncodeMessage(&e, golden) {
		t.Fatal("EncodeMessage declined the golden message")
	}
	if got, want := hex.EncodeToString(e.Bytes()), prefix+"00"+"090402"; got != want {
		t.Errorf("golden message encodes as\n %s\nwant\n %s", got, want)
	}
	for _, tail := range []string{"01", "03" + "0100", "04", "05", "7f", "8001", "0200" + "0000"} {
		raw, err := hex.DecodeString(prefix + tail + "090402")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := wire.DecodeMessage(raw); !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("flags and cap %s: decode error %v, want ErrCorrupt", tail, err)
		}
	}
}

// FuzzWireCluster round-trips fuzzer-shaped ClusterQueryMsg values
// through the binary codec, and splices fuzzer-chosen flags, Keep and From
// into the encoded layout: a defined flag set with a positive Keep must
// decode to the message carrying them and re-encode to the same bytes,
// anything else must fail as ErrCorrupt (nightly fuzz cron).
func FuzzWireCluster(f *testing.F) {
	f.Add(uint64(1), "computer", uint64(6), 3, true, "10.0.0.1:9", uint64(7), uint64(0), uint64(0), uint64(0))
	f.Add(uint64(0), "", uint64(0), 0, false, "", uint64(0), uint64(1), uint64(0), uint64(0))
	f.Add(uint64(5), "grid", uint64(1<<40), 9, false, "10.0.0.2:9", uint64(3), uint64(3), uint64(12), uint64(1<<33))
	f.Add(uint64(5), "grid", uint64(1<<40), 9, false, "10.0.0.2:9", uint64(3), uint64(2), uint64(0), uint64(4))
	f.Add(uint64(2), "net", uint64(9), 1, true, "a:1", uint64(8), uint64(6), uint64(1), uint64(0))
	f.Fuzz(func(t *testing.T, qid uint64, word string, prefix uint64, level int, complete bool, reply string, token uint64, flags, keep, from uint64) {
		msg := &squid.ClusterQueryMsg{
			QID:      telemetry.QueryID(qid),
			Query:    keyspace.Query{keyspace.Exact(word), keyspace.Wildcard()},
			Clusters: []sfc.Refined{refined(prefix, level, complete)},
			ReplyTo:  transport.Addr(reply),
			Token:    token,
			Trace:    telemetry.TraceRef{Parent: qid, Depth: level & 0xff, Mode: telemetry.TraceOn},
		}
		// Locate the flags byte of the uncapped layout: the first byte in
		// which the uncapped and a capped encoding differ.
		var off, on wire.Encoder
		wire.EncodeMessage(&off, msg)
		msg.Keep = 1
		wire.EncodeMessage(&on, msg)
		msg.Keep = 0
		at := 0
		for off.Bytes()[at] == on.Bytes()[at] {
			at++
		}
		var mid wire.Encoder
		mid.Uvarint(flags)
		if flags&2 != 0 {
			mid.Uvarint(keep)
			mid.Uvarint(from)
		}
		raw := append(append(append([]byte(nil), off.Bytes()[:at]...), mid.Bytes()...), off.Bytes()[at+1:]...)

		got, err := wire.DecodeMessage(raw)
		if flags&^2 != 0 || (flags&2 != 0 && (keep == 0 || keep > math.MaxInt)) {
			if !errors.Is(err, wire.ErrCorrupt) {
				t.Fatalf("flags %d keep %d: decode error %v, want ErrCorrupt", flags, keep, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if flags&2 != 0 {
			msg.Keep, msg.From = int(keep), from
		}
		if !reflect.DeepEqual(got, msg) {
			t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, msg)
		}
		var back wire.Encoder
		if !wire.EncodeMessage(&back, msg) || !bytes.Equal(back.Bytes(), raw) {
			t.Fatalf("re-encode differs from the decoded bytes:\n got %x\nwant %x", back.Bytes(), raw)
		}
	})
}

// FuzzWireSubResult round-trips fuzzer-shaped SubResultMsg values
// through the binary codec (nightly fuzz cron).
func FuzzWireSubResult(f *testing.F) {
	f.Add(uint64(1), uint64(2), "doc.pdf", "computer", false)
	f.Add(uint64(0), uint64(0), "", "", true)
	f.Fuzz(func(t *testing.T, qid, token uint64, data, value string, incomplete bool) {
		msg := &squid.SubResultMsg{
			QID:        telemetry.QueryID(qid),
			Token:      token,
			Matches:    []squid.Element{{Values: []string{value}, Data: data}},
			Incomplete: incomplete,
		}
		var e wire.Encoder
		if !wire.EncodeMessage(&e, msg) {
			t.Fatalf("EncodeMessage declined %#v", msg)
		}
		got, err := wire.DecodeMessage(e.Bytes())
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got, msg) {
			t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, msg)
		}
	})
}

// retiredBatchFrame is a frame in the layout of the deleted BatchMsg
// (tag TagSquidBase+5, an entry count, then ClusterQueryMsg bodies), as a
// peer built before its removal would send it.
func retiredBatchFrame(r *rand.Rand) []byte {
	var cq wire.Encoder
	wire.EncodeMessage(&cq, genClusterQuery(r))
	var e wire.Encoder
	e.Uvarint(wire.TagSquidBase + 5)
	e.Uvarint(1)
	return append(e.Bytes(), cq.Bytes()[1:]...) // squid tags are one varint byte
}

// retiredAckFrame is a frame in the layout of the deleted QueryAckMsg (tag
// TagSquidBase+4, then QID and token), as a peer built before its removal
// would send it.
func retiredAckFrame() []byte {
	var e wire.Encoder
	e.Uvarint(wire.TagSquidBase + 4)
	e.Uvarint(7)
	e.Uvarint(9)
	return e.Bytes()
}

// retiredLookupFrame is a frame in the layout of the deleted LookupMsg
// (tag TagSquidBase+2, then QID, query, key, reply address, token and
// trace ref), as a peer built before its removal would send it.
func retiredLookupFrame() []byte {
	var e wire.Encoder
	e.Uvarint(wire.TagSquidBase + 2)
	e.Uvarint(1)
	e.Uvarint(0) // an empty query
	e.U64(77)
	e.String("r")
	e.Uvarint(5)
	e.Uvarint(0) // trace ref: parent, depth, mode
	e.Int(0)
	e.Uvarint(0)
	return e.Bytes()
}

// retiredPartialFrame is a frame in the layout of the deleted
// PartialResultMsg (tag TagSquidBase+17, then QID, token and a result
// list), as a peer built before its removal would send it.
func retiredPartialFrame() []byte {
	var e wire.Encoder
	e.Uvarint(wire.TagSquidBase + 17)
	e.Uvarint(1)
	e.Uvarint(2)
	e.Uvarint(0) // an empty result list
	return e.Bytes()
}

// fuzzDecoder is reused across every FuzzWireFrame input, the way a TCP
// connection reuses its decoder frame after frame.
var fuzzDecoder wire.Decoder

// FuzzWireFrame hammers the registry decoder with arbitrary frames: no
// input may panic; whatever decodes must re-encode and decode to the
// same value; and a decoder reused from the previous input (which may
// have failed mid-list) must decode exactly what a fresh one does
// (nightly fuzz cron; the primitive-level twin lives in internal/wire).
// Allocation is bounded by Decoder.Len's rule — no count is trusted past
// the frame's remaining bytes — which TestDecodeHostileCounts checks on
// a worst case.
func FuzzWireFrame(f *testing.F) {
	r := rand.New(rand.NewSource(11))
	// A result list cut off mid-way, so the reused decoder meets the next
	// seed with a failed list behind it.
	var cut wire.Encoder
	wire.EncodeMessage(&cut, &squid.SubResultMsg{QID: 1, Token: 2, Matches: []squid.Element{
		{Values: []string{"computer", "network"}, Data: "report.pdf"},
		{Values: []string{"grid"}, Data: "x"},
	}})
	f.Add(append([]byte(nil), cut.Bytes()[:cut.Len()-1]...))
	for _, c := range wire.Codecs() {
		if !protocolCodec(c) {
			continue
		}
		if gen, ok := wireGens[c.Type]; ok {
			var e wire.Encoder
			if wire.EncodeMessage(&e, gen(r)) {
				f.Add(append([]byte(nil), e.Bytes()...))
			}
		}
	}
	f.Add(retiredBatchFrame(r))
	f.Add(retiredAckFrame())
	f.Add(retiredLookupFrame())
	f.Add(retiredPartialFrame())
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := wire.DecodeMessage(data)
		reused, reusedErr := fuzzDecoder.Message(data)
		if (err != nil) != (reusedErr != nil) || !reflect.DeepEqual(reused, v) {
			t.Fatalf("reused decoder disagrees with a fresh one:\n fresh  %#v (%v)\n reused %#v (%v)", v, err, reused, reusedErr)
		}
		if err != nil {
			return
		}
		// Whatever decoded must re-encode and decode to the same value.
		var e wire.Encoder
		if !wire.EncodeMessage(&e, v) {
			return // e.g. decoded a nil-payload variant that re-encode declines
		}
		back, err := wire.DecodeMessage(e.Bytes())
		if err != nil {
			t.Fatalf("re-decode of %T failed: %v", v, err)
		}
		if !reflect.DeepEqual(back, v) {
			t.Fatalf("round trip drifted for %T", v)
		}
	})
}
