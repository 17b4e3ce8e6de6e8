package transport

import (
	"hash/fnv"
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
	// MinLatency/MaxLatency bound a uniform per-message delivery latency.
	// MaxLatency <= 0 delivers at the sending instant.
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
// every non-self message on both simulator drivers — the in-process
// transport on the wall clock and the discrete-event transport on virtual
// time — so one seed means one schedule on either. The same protocol code
// runs unchanged; only the network misbehaves.
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
	linkRate map[linkKey]float64
	links    map[uint64]linkState // by value, keyed by endpoint numbers from<<32 | to
	ids      map[Addr]uint32      // endpoint numbers in order of first use, never reused
	group    map[Addr]int         // partition group; addresses absent are group 0
	split    bool                 // a partition is active
	crashed  map[Addr]bool
	stats    FaultStats
	met      *faultMetrics
}

type linkKey struct{ from, to Addr }

// linkState is everything one directed link owns: its private random
// sequence and its FIFO arrival floor. The generator is splitmix64 rather
// than math/rand's lagged-Fibonacci source because a planet-scale ring
// touches 10⁵+ directed links and each math/rand source carries ~5 KB of
// state — hundreds of megabytes the collector would rescan forever — while
// splitmix64 is 8 bytes and a few arithmetic ops per draw, with the same
// determinism guarantee: a link's schedule depends only on the seed and its
// own message order.
type linkState struct {
	rng   uint64
	floor int64
}

// next advances the splitmix64 sequence (Steele et al., "Fast Splittable
// Pseudorandom Number Generators").
func (s *linkState) next() uint64 {
	s.rng += 0x9e3779b97f4a7c15
	z := s.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform draw in [0, 1) from the link's sequence.
func (s *linkState) float64() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

// NewFaults returns a fault plan configured by cfg.
func NewFaults(cfg FaultConfig) *Faults {
	return &Faults{
		seed:     cfg.Seed,
		dropRate: cfg.DropRate,
		minLat:   cfg.MinLatency,
		maxLat:   cfg.MaxLatency,
		linkRate: make(map[linkKey]float64),
		links:    make(map[uint64]linkState),
		ids:      make(map[Addr]uint32),
		group:    make(map[Addr]int),
		crashed:  make(map[Addr]bool),
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
	f.linkRate[linkKey{from, to}] = p
	f.mu.Unlock()
}

// ClearLinkDrops removes all per-link drop overrides.
func (f *Faults) ClearLinkDrops() {
	f.mu.Lock()
	f.linkRate = make(map[linkKey]float64)
	f.mu.Unlock()
}

// SetDelay changes the injected latency range. max <= 0 disables latency.
func (f *Faults) SetDelay(min, max time.Duration) {
	f.mu.Lock()
	f.minLat, f.maxLat = min, max
	f.mu.Unlock()
}

// Partition splits the network: each listed group can only talk within
// itself, and unlisted addresses form one implicit group of their own.
// Messages crossing group boundaries are silently lost.
func (f *Faults) Partition(groups ...[]Addr) {
	f.mu.Lock()
	f.group = make(map[Addr]int)
	for i, g := range groups {
		for _, a := range g {
			f.group[a] = i + 1
		}
	}
	f.split = true
	f.mu.Unlock()
}

// Heal removes any partition.
func (f *Faults) Heal() {
	f.mu.Lock()
	f.group = make(map[Addr]int)
	f.split = false
	f.mu.Unlock()
}

// Crash black-holes an endpoint without detaching it: messages to and from
// it are silently lost, modelling a frozen or fully partitioned process.
// The endpoint's state survives; Restart reconnects it.
func (f *Faults) Crash(name Addr) {
	f.mu.Lock()
	f.crashed[name] = true
	f.mu.Unlock()
}

// Crashed reports whether the named endpoint is currently black-holed.
func (f *Faults) Crashed(name Addr) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed[name]
}

// Restart reconnects a crashed endpoint. Transports also call it when they
// kill an endpoint, so a dead address carries no crash mark.
func (f *Faults) Restart(name Addr) {
	f.mu.Lock()
	delete(f.crashed, name)
	f.mu.Unlock()
}

// Stats snapshots the injected-fault counters.
func (f *Faults) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// Admit runs one message from → to, sent at instant now (nanoseconds on the
// caller's timeline), through the plan. It reports whether the message
// survives and, if so, the instant it arrives: never before now, and never
// before an earlier survivor of the same directed link (FIFO per link, as
// on an ordered connection; cross-link reordering is the latency model
// working as intended). The checks run in a fixed order — crash, partition,
// the link's two draws, the FIFO floor — and both draws are always consumed,
// so a link's schedule does not shift when settings change mid-run.
func (f *Faults) Admit(from, to Addr, now int64) (at int64, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	met := f.met
	if len(f.crashed) > 0 && (f.crashed[from] || f.crashed[to]) {
		f.stats.CrashDrops++
		if met != nil {
			met.crash.Inc()
		}
		return 0, false
	}
	if f.split && f.group[from] != f.group[to] {
		f.stats.PartitionDrops++
		if met != nil {
			met.partition.Inc()
		}
		return 0, false
	}
	rate := f.dropRate
	if len(f.linkRate) > 0 {
		if r, ok := f.linkRate[linkKey{from, to}]; ok {
			rate = r
		}
	}
	key, st := f.link(from, to)
	dropDraw := st.float64()
	latDraw := st.float64()
	if rate > 0 && dropDraw < rate {
		f.links[key] = st
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
	f.links[key] = st
	f.stats.Delivered++
	if met != nil {
		met.delivered.Inc()
	}
	return at, true
}

// link returns the key and current state of one directed link, seeding its
// random sequence on first use from the plan's seed and the link's name.
// The caller holds f.mu and stores the advanced state back under the key.
func (f *Faults) link(from, to Addr) (uint64, linkState) {
	key := uint64(f.id(from))<<32 | uint64(f.id(to))
	if s, ok := f.links[key]; ok {
		return key, s
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(from)) // hash.Hash.Write never fails
	_, _ = h.Write([]byte{0})    // hash.Hash.Write never fails
	_, _ = h.Write([]byte(to))   // hash.Hash.Write never fails
	return key, linkState{rng: uint64(f.seed) ^ h.Sum64()}
}

// id returns an endpoint's number, assigning the next one on first use.
func (f *Faults) id(a Addr) uint32 {
	if id, ok := f.ids[a]; ok {
		return id
	}
	id := uint32(len(f.ids))
	f.ids[a] = id
	return id
}
