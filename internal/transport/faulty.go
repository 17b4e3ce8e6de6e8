package transport

import (
	"hash/fnv"
	"math/bits"
	"sync"
	"time"
)

// FaultConfig tunes a fault plan. The zero value injects nothing.
type FaultConfig struct {
	// Seed drives every fault decision. The schedule is deterministic per
	// directed link: each (from, to) pair owns a random sequence derived
	// from Seed, consumed one (drop, latency) pair per message, so the same
	// seed and the same per-link message order reproduce the same drops and
	// delays regardless of how sends interleave across links — on either
	// driver.
	Seed int64
	// MinLatency/MaxLatency bound a uniform per-message delivery latency,
	// which only the event core (dessim) applies; the in-process transport
	// delivers every survivor at once. MaxLatency <= 0 delivers at the
	// sending instant.
	MinLatency, MaxLatency time.Duration
	// DropRate is the default probability in [0, 1) that a message is
	// silently lost (the sender sees success). Per-link overrides win.
	DropRate float64
}

// FaultStats counts injected faults, for experiment accounting.
type FaultStats struct {
	Delivered      uint64 // messages admitted for delivery
	Dropped        uint64 // lost to the drop-rate lottery
	Delayed        uint64 // admitted with an injected latency
	PartitionDrops uint64 // lost to a network partition
	CrashDrops     uint64 // lost to a crashed endpoint
}

// Faults is a deterministic, seeded fault plan: per-link message drops,
// latency, partitions, and endpoint crash/restart. It decides the fate of
// every non-self message on both simulator drivers, the in-process
// transport and the discrete-event transport, so one seed means one
// schedule of drops on either. Latency exists only on the discrete-event
// transport, in virtual time: the in-process transport ignores the
// arrival instant Admit returns. The same protocol code runs unchanged;
// only the network misbehaves.
//
// Self-sends are never offered to the plan: both node layers use them to
// inject work into their own delivery context, and faulting them would
// wedge the node rather than the network.
//
// Faults is safe for concurrent use.
type Faults struct {
	seed int64

	mu       sync.Mutex
	dropRate float64
	minLat   time.Duration
	maxLat   time.Duration
	linkRate map[uint64]float64 // per-link drop overrides, keyed like links
	links    linkTable          // every directed link that has carried a message
	ids      map[Addr]uint32    // endpoint numbers in order of first use, never reused
	names    []Addr             // the name behind each number, for seeding its links
	group    []int32            // partition group by endpoint number; 0 past the end
	split    bool               // a partition is active
	crashed  []bool             // crash mark by endpoint number; false past the end
	ncrashed int                // marks set in crashed
	stats    FaultStats
	met      *faultMetrics
}

// linkState is everything one directed link owns: its private random
// sequence and its FIFO arrival floor. The generator is splitmix64 rather
// than math/rand's lagged-Fibonacci source because a planet-scale ring
// touches 10⁵+ directed links and each math/rand source carries ~5 KB of
// state — hundreds of megabytes the collector would rescan forever — while
// splitmix64 is 8 bytes and a few arithmetic ops per draw, with the same
// determinism guarantee: a link's schedule depends only on the seed and its
// own message order.
type linkState struct {
	rng   SplitMix
	floor int64
}

// linkTable holds the state of every directed link, keyed by the endpoint
// numbers from<<32 | to: an open-addressing table with linear probing, so
// one probe sequence finds or inserts a link and a send updates it in
// place. It holds no pointer, so the collector never scans it. It grows by
// a quarter at four-fifths full and so stays 64–80 % full: a link costs
// 30–38 bytes (a Go map's entry ~45), and the table never doubles in one
// step as a 10⁵-link ring crosses a power of two.
type linkTable struct {
	slots []linkSlot
	n     int // links held
}

// linkSlot is one table entry; key is the link key plus one, so the zero
// slot is free.
type linkSlot struct {
	key uint64
	linkState
}

// get returns the state of the link with key k, inserting a zero state
// (fresh reports it) when the link is new. The pointer is good until the
// next get.
func (t *linkTable) get(k uint64) (st *linkState, fresh bool) {
	if (t.n+1)*5 > len(t.slots)*4 {
		t.grow()
	}
	k++
	for i := t.home(k); ; i = t.next(i) {
		s := &t.slots[i]
		if s.key == k {
			return &s.linkState, false
		}
		if s.key == 0 {
			s.key = k
			t.n++
			return &s.linkState, true
		}
	}
}

// home is the first slot probed for a stored key: its hash scaled onto the
// table's length, which need not be a power of two.
func (t *linkTable) home(k uint64) int {
	hi, _ := bits.Mul64(linkHash(k), uint64(len(t.slots)))
	return int(hi)
}

// next is the slot probed after i, wrapping at the end of the table.
func (t *linkTable) next(i int) int {
	if i++; i == len(t.slots) {
		return 0
	}
	return i
}

// grow enlarges the table by a quarter (or sizes it on first use) and
// reinserts every link.
func (t *linkTable) grow() {
	old := t.slots
	t.slots = make([]linkSlot, max(len(old)+len(old)/4, 1024))
	for _, s := range old {
		if s.key == 0 {
			continue
		}
		i := t.home(s.key)
		for t.slots[i].key != 0 {
			i = t.next(i)
		}
		t.slots[i] = s
	}
}

// linkHash mixes a link key (the splitmix64 finalizer), so the high bits
// the table indexes by depend on both endpoint numbers.
func linkHash(k uint64) uint64 {
	k = (k ^ (k >> 30)) * 0xbf58476d1ce4e5b9
	k = (k ^ (k >> 27)) * 0x94d049bb133111eb
	return k ^ (k >> 31)
}

// SplitMix is a splitmix64 sequence (Steele et al., "Fast Splittable
// Pseudorandom Number Generators") whose state is a 64-bit counter: 8 bytes
// and a few arithmetic ops per draw. Set it to a seed before the first
// draw. Not safe for concurrent use.
type SplitMix uint64

// Next advances the sequence and returns its next draw.
func (s *SplitMix) Next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform draw in [0, 1).
func (s *SplitMix) Float64() float64 {
	return float64(s.Next()>>11) / (1 << 53)
}

// NewFaults returns a fault plan configured by cfg.
func NewFaults(cfg FaultConfig) *Faults {
	return &Faults{
		seed:     cfg.Seed,
		dropRate: cfg.DropRate,
		minLat:   cfg.MinLatency,
		maxLat:   cfg.MaxLatency,
		linkRate: make(map[uint64]float64),
		ids:      make(map[Addr]uint32),
	}
}

// SetDropRate changes the default drop probability. 0 heals drop faults.
func (f *Faults) SetDropRate(p float64) {
	f.mu.Lock()
	f.dropRate = p
	f.mu.Unlock()
}

// SetLinkDrop overrides the drop probability of one directed link.
func (f *Faults) SetLinkDrop(from, to Addr, p float64) {
	f.mu.Lock()
	f.linkRate[linkKey(f.id(from), f.id(to))] = p
	f.mu.Unlock()
}

// ClearLinkDrops removes all per-link drop overrides.
func (f *Faults) ClearLinkDrops() {
	f.mu.Lock()
	f.linkRate = make(map[uint64]float64)
	f.mu.Unlock()
}

// Partition splits the network: each listed group can only talk within
// itself, and unlisted addresses form one implicit group of their own.
// Messages crossing group boundaries are silently lost.
func (f *Faults) Partition(groups ...[]Addr) {
	f.mu.Lock()
	f.group = make([]int32, len(f.names))
	for i, g := range groups {
		for _, a := range g {
			id := f.id(a)
			if int(id) >= len(f.group) {
				f.group = append(f.group, make([]int32, int(id)+1-len(f.group))...)
			}
			f.group[id] = int32(i + 1)
		}
	}
	f.split = true
	f.mu.Unlock()
}

// Heal removes any partition.
func (f *Faults) Heal() {
	f.mu.Lock()
	f.group = nil
	f.split = false
	f.mu.Unlock()
}

// Crash black-holes an endpoint without detaching it: messages to and from
// it are silently lost, modelling a frozen or fully partitioned process.
// The endpoint's state survives; Restart reconnects it.
func (f *Faults) Crash(name Addr) {
	f.mu.Lock()
	id := f.id(name)
	if int(id) >= len(f.crashed) {
		f.crashed = append(f.crashed, make([]bool, int(id)+1-len(f.crashed))...)
	}
	if !f.crashed[id] {
		f.crashed[id] = true
		f.ncrashed++
	}
	f.mu.Unlock()
}

// Crashed reports whether the named endpoint is currently black-holed.
func (f *Faults) Crashed(name Addr) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	id, ok := f.ids[name]
	return ok && f.isCrashed(id)
}

// isCrashed reports the crash mark of an endpoint number. The caller holds
// f.mu.
func (f *Faults) isCrashed(id uint32) bool {
	return int(id) < len(f.crashed) && f.crashed[id]
}

// groupOf returns the partition group of an endpoint number. The caller
// holds f.mu.
func (f *Faults) groupOf(id uint32) int32 {
	if int(id) < len(f.group) {
		return f.group[id]
	}
	return 0
}

// Restart reconnects a crashed endpoint. Transports also call it when they
// kill an endpoint, so a dead address carries no crash mark.
func (f *Faults) Restart(name Addr) {
	f.mu.Lock()
	if id, ok := f.ids[name]; ok && f.isCrashed(id) {
		f.crashed[id] = false
		f.ncrashed--
	}
	f.mu.Unlock()
}

// Stats snapshots the injected-fault counters.
func (f *Faults) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// Number returns the endpoint number of name, assigning the next one on
// first use; a name keeps its number for the plan's lifetime. A transport
// numbers each endpoint once, when it attaches (and again when it is given
// a new plan), and admits its messages by number, so it never looks a name
// up per message.
func (f *Faults) Number(name Addr) uint32 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.id(name)
}

// Admit runs one message between the endpoints numbered from and to (the
// numbers Number returned), sent at instant now (nanoseconds on the
// caller's timeline), through the plan. It reports whether the message
// survives and, if so, the instant it arrives: never before now, and never
// before an earlier survivor of the same directed link (FIFO per link, as
// on an ordered connection; cross-link reordering is the latency model
// working as intended). The checks run in a fixed order — crash, partition,
// the link's two draws, the FIFO floor — and both draws are always consumed,
// so a link's schedule does not shift when settings change mid-run.
func (f *Faults) Admit(from, to uint32, now int64) (at int64, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.admit(from, to, now)
}

// admit is Admit with f.mu held.
func (f *Faults) admit(from, to uint32, now int64) (at int64, ok bool) {
	met := f.met
	if f.ncrashed > 0 && (f.isCrashed(from) || f.isCrashed(to)) {
		f.stats.CrashDrops++
		if met != nil {
			met.crash.Inc()
		}
		return 0, false
	}
	if f.split && f.groupOf(from) != f.groupOf(to) {
		f.stats.PartitionDrops++
		if met != nil {
			met.partition.Inc()
		}
		return 0, false
	}
	key := linkKey(from, to)
	rate := f.dropRate
	if len(f.linkRate) > 0 {
		if r, ok := f.linkRate[key]; ok {
			rate = r
		}
	}
	st, fresh := f.links.get(key)
	if fresh {
		st.rng = SplitMix(f.linkSeed(from, to))
	}
	dropDraw := st.rng.Float64()
	latDraw := st.rng.Float64()
	if rate > 0 && dropDraw < rate {
		f.stats.Dropped++
		if met != nil {
			met.dropped.Inc()
		}
		return 0, false
	}
	at = now
	if f.maxLat > 0 {
		at += int64(f.minLat + time.Duration(latDraw*float64(f.maxLat-f.minLat)))
		f.stats.Delayed++
		if met != nil {
			met.delayed.Inc()
		}
	}
	if at < st.floor {
		at = st.floor
	}
	st.floor = at
	f.stats.Delivered++
	if met != nil {
		met.delivered.Inc()
	}
	return at, true
}

// linkKey is the key of the directed link between two endpoint numbers.
func linkKey(from, to uint32) uint64 { return uint64(from)<<32 | uint64(to) }

// linkSeed starts a link's random sequence from the plan's seed and the
// two endpoint names, so a link's schedule does not depend on the order in
// which endpoints were numbered. The caller holds f.mu.
func (f *Faults) linkSeed(from, to uint32) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(f.names[from])) // hash.Hash.Write never fails
	_, _ = h.Write([]byte{0})             // hash.Hash.Write never fails
	_, _ = h.Write([]byte(f.names[to]))   // hash.Hash.Write never fails
	return uint64(f.seed) ^ h.Sum64()
}

// id returns an endpoint's number, assigning the next one on first use.
func (f *Faults) id(a Addr) uint32 {
	if id, ok := f.ids[a]; ok {
		return id
	}
	id := uint32(len(f.names))
	f.ids[a] = id
	f.names = append(f.names, a)
	return id
}
