package squid_test

import (
	"errors"
	"math/rand"
	"testing"

	"squid/internal/wire"
)

// TestWireTagRegistry pins the chord and squid tag blocks' tag ↔ type
// binding, pointer form included: a kind that travels by pointer is
// registered as *T and its value form not at all.
// Peers built at different commits depend on these numbers never moving:
// a renumbered tag decodes as the wrong type on the other side. Adding a message appends a row here; reordering or deleting
// one is a wire break and must fail loudly. A deleted message's tag is
// retired: it stays unbound forever.
func TestWireTagRegistry(t *testing.T) {
	want := map[uint64]string{
		wire.TagChordBase + 0:  "*chord.FindMsg",
		wire.TagChordBase + 1:  "*chord.FoundMsg",
		wire.TagChordBase + 2:  "*chord.RouteMsg",
		wire.TagChordBase + 3:  "chord.JoinReqMsg",
		wire.TagChordBase + 4:  "chord.JoinAckMsg",
		wire.TagChordBase + 5:  "chord.JoinNackMsg",
		wire.TagChordBase + 6:  "chord.JoinConfirmMsg",
		wire.TagChordBase + 7:  "chord.HandoffMsg",
		wire.TagChordBase + 8:  "chord.NotifyMsg",
		wire.TagChordBase + 9:  "chord.GetStateMsg",
		wire.TagChordBase + 10: "chord.StateMsg",
		wire.TagChordBase + 11: "chord.LeaveMsg",
		wire.TagChordBase + 12: "chord.SuccChangedMsg",
		wire.TagChordBase + 13: "chord.AppMsg",
		wire.TagChordBase + 14: "chord.NodeRef",
		wire.TagChordBase + 15: "[]chord.Item",
		wire.TagSquidBase + 0:  "squid.PublishMsg",
		wire.TagSquidBase + 1:  "squid.UnpublishMsg",
		wire.TagSquidBase + 3:  "*squid.ClusterQueryMsg",
		wire.TagSquidBase + 6:  "squid.QueryShedMsg",
		wire.TagSquidBase + 7:  "*squid.SubResultMsg",
		wire.TagSquidBase + 8:  "squid.ReplicaMsg",
		wire.TagSquidBase + 9:  "squid.ClientPublishMsg",
		wire.TagSquidBase + 10: "squid.ClientUnpublishMsg",
		wire.TagSquidBase + 11: "squid.ClientQueryMsg",
		wire.TagSquidBase + 12: "squid.ClientResultMsg",
		wire.TagSquidBase + 13: "squid.Element",
		wire.TagSquidBase + 14: "[]squid.Element",
		wire.TagSquidBase + 15: "keyspace.Query",
		wire.TagSquidBase + 16: "keyspace.Term",
		wire.TagSquidBase + 18: "squid.QueryCancelMsg",
	}
	retired := []uint64{
		wire.TagSquidBase + 2,  // LookupMsg
		wire.TagSquidBase + 4,  // QueryAckMsg
		wire.TagSquidBase + 5,  // BatchMsg
		wire.TagSquidBase + 17, // PartialResultMsg
	}
	got := map[uint64]string{}
	for _, c := range wire.Codecs() {
		if c.Tag >= wire.TagChordBase && protocolCodec(c) {
			got[c.Tag] = c.Type.String()
		}
	}
	for tag, typ := range want {
		if got[tag] != typ {
			t.Errorf("tag %d: bound to %q, want %q", tag, got[tag], typ)
		}
	}
	for _, tag := range retired {
		if typ, ok := got[tag]; ok {
			t.Errorf("retired tag %d is bound to %s", tag, typ)
		}
	}
	if v, err := wire.DecodeMessage(retiredBatchFrame(rand.New(rand.NewSource(1)))); !errors.Is(err, wire.ErrCorrupt) {
		t.Errorf("a frame under the retired BatchMsg tag decoded as %T (err %v), want ErrCorrupt", v, err)
	}
	if v, err := wire.DecodeMessage(retiredAckFrame()); !errors.Is(err, wire.ErrCorrupt) {
		t.Errorf("a frame under the retired QueryAckMsg tag decoded as %T (err %v), want ErrCorrupt", v, err)
	}
	if v, err := wire.DecodeMessage(retiredLookupFrame()); !errors.Is(err, wire.ErrCorrupt) {
		t.Errorf("a frame under the retired LookupMsg tag decoded as %T (err %v), want ErrCorrupt", v, err)
	}
	if v, err := wire.DecodeMessage(retiredPartialFrame()); !errors.Is(err, wire.ErrCorrupt) {
		t.Errorf("a frame under the retired PartialResultMsg tag decoded as %T (err %v), want ErrCorrupt", v, err)
	}
	for tag, typ := range got {
		if _, ok := want[tag]; !ok {
			t.Errorf("tag %d (%s) is not in the pinned registry — append it (never renumber)", tag, typ)
		}
	}
}
