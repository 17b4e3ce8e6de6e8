package dessim

import (
	"fmt"
	"math"
	"sort"
	"time"

	"squid/internal/chord"
	"squid/internal/keyspace"
	"squid/internal/sfc"
	"squid/internal/sim"
	"squid/internal/squid"
)

const never = VTime(math.MaxInt64) // the model's "has not happened" instant

// modelElem is the model's record of one element: its curve index, and
// when it was published, unpublished and lost.
type modelElem struct {
	e                squid.Element
	key              uint64
	pub, unpub, lost VTime
}

func (me *modelElem) live() bool { return me.unpub == never && me.lost == never }

// model is a storm's read-only oracle: it learns the truth from the
// storm's own operations and checks every answer with sim.CheckAnswer. A
// query run from ts to te may return an element published before te whose
// unpublish had not settled by ts (upper); a complete answer must hold
// every element whose publish had settled by ts, never unpublished and
// never held by a member that died with the only copy (lower). A write
// settles once every hop its routing may take has had MaxLatency. The
// model reads stores and the event heap in place, draws nothing from the
// storm's rng and schedules no event, so a storm replays the same with it.
type model struct {
	nw       *Network
	settle   VTime
	replicas int
	truth    []*modelElem // sorted by curve index
	elems    map[string]*modelElem

	scratch      sfc.Scratch
	cover        []sfc.Refined
	lower, upper []squid.Element // check's buffers

	violations, lost int
	first            []error
}

// newModel seeds the model from the members' stores: what they hold when
// the storm begins counts as published long ago.
func newModel(nw *Network) *model {
	cfg := nw.Config()
	sp := chord.Space{Bits: nw.Space.IndexBits()}
	m := &model{
		nw:       nw,
		settle:   VTime(sp.MaxHops()) * VTime(cfg.Net.MaxLatency),
		replicas: cfg.Engine.Replicas,
		elems:    make(map[string]*modelElem),
	}
	for _, p := range nw.Peers {
		p.Engine.LocalStore().ScanSpan(sfc.Interval{Lo: 0, Hi: sp.Mask()}, func(key uint64, e squid.Element) {
			if m.elems[e.Data] == nil {
				me := &modelElem{e: e, key: key, pub: math.MinInt64 / 2, unpub: never, lost: never}
				m.elems[e.Data] = me
				m.truth = append(m.truth, me)
			}
		})
	}
	sort.Slice(m.truth, func(i, j int) bool { return m.truth[i].key < m.truth[j].key })
	return m
}

// seek returns the index of truth's first element at or after key.
func (m *model) seek(key uint64) int {
	return sort.Search(len(m.truth), func(i int) bool { return m.truth[i].key >= key })
}

// publish records a fresh element the storm publishes now.
func (m *model) publish(e squid.Element) {
	key, err := m.nw.Space.Index(e.Values)
	if err != nil || m.elems[e.Data] != nil {
		return
	}
	me := &modelElem{e: e, key: key, pub: m.nw.Core.Now(), unpub: never, lost: never}
	m.elems[e.Data] = me
	i := m.seek(key)
	m.truth = append(m.truth, nil)
	copy(m.truth[i+1:], m.truth[i:])
	m.truth[i] = me
}

// unpublish records the withdrawal of a live element whose publish has
// settled, the first such from index i of truth on, and returns it; nil if
// there is none.
func (m *model) unpublish(i int) *modelElem {
	now := m.nw.Core.Now()
	for k := range m.truth {
		if me := m.truth[(i+k)%len(m.truth)]; me.live() && me.pub+m.settle < now {
			me.unpub = now
			return me
		}
	}
	return nil
}

// kill records that member p dies now with everything it holds: its stores
// and the messages on their way to it. A live element no other member
// holds a copy of is lost. A publish on its way is lost with it, and an
// unpublish on its way never happened.
func (m *model) kill(p *sim.Peer) {
	now := m.nw.Core.Now()
	held := func(key uint64, e squid.Element) {
		if me := m.elems[e.Data]; me != nil && me.live() && !m.copied(p, key, e) {
			me.lost = now
			m.lost++
		}
	}
	full := sfc.Interval{Lo: 0, Hi: ^uint64(0)}
	p.Engine.LocalStore().ScanSpan(full, held)
	p.Engine.ReplicaStore().ScanSpan(full, held)
	m.nw.Core.inFlight(p.Addr(), func(msg any) {
		var items []chord.Item
		switch msg := msg.(type) {
		case *chord.RouteMsg:
			switch w := msg.Payload.(type) {
			case squid.PublishMsg:
				if me := m.elems[w.Elem.Data]; me != nil && me.live() {
					me.lost = now
				}
			case squid.UnpublishMsg:
				if me := m.elems[w.Elem.Data]; me != nil && me.lost == never {
					me.unpub = never
				}
			}
		case chord.LeaveMsg:
			items = msg.Items
		case chord.HandoffMsg:
			items = msg.Items
		}
		for _, it := range items {
			for _, e := range it.Value.([]squid.Element) {
				held(uint64(it.Key), e)
			}
		}
	})
}

// copied reports whether a member other than p holds e, as primary or
// replica. Without replication none does.
func (m *model) copied(p *sim.Peer, key uint64, e squid.Element) bool {
	if m.replicas == 0 {
		return false
	}
	for _, o := range m.nw.Peers {
		for _, c := range append(o.Engine.LocalStore().At(key), o.Engine.ReplicaStore().At(key)...) {
			if o != p && c.Data == e.Data {
				return true
			}
		}
	}
	return false
}

// check applies sim.CheckAnswer to query i's answer, run from ts to now,
// with bounds scanned over a 64-cluster cover of the query's region: a
// check costs about as much as its answer is long.
func (m *model) check(i int, q keyspace.Query, ts VTime, matches []squid.Element, complete bool) {
	region, err := m.nw.Space.Region(q)
	if err != nil {
		return
	}
	now, curve := m.nw.Core.Now(), m.nw.Space.Curve()
	m.lower, m.upper = m.lower[:0], m.upper[:0]
	m.cover = sfc.CoarseClustersInto(m.cover[:0], curve, region, 64, &m.scratch)
	for _, cl := range m.cover {
		span := cl.Span(curve)
		for j := m.seek(span.Lo); j < len(m.truth) && m.truth[j].key <= span.Hi; j++ {
			me := m.truth[j]
			if me.pub > now || (me.unpub != never && me.unpub+m.settle < ts) || !m.nw.Space.Matches(q, me.e.Values) {
				continue
			}
			m.upper = append(m.upper, me.e)
			if me.pub+m.settle < ts && me.live() {
				m.lower = append(m.lower, me.e)
			}
		}
	}
	if err := sim.CheckAnswer(matches, complete, m.lower, m.upper); err != nil {
		m.violations++
		if len(m.first) < 5 {
			m.first = append(m.first, fmt.Errorf("query %d at %v: %w", i, time.Duration(now), err))
		}
	}
}
