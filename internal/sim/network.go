// Package sim builds and drives simulated Squid networks: N peers with
// oracle ring bootstrap and bulk data preload (as the paper's simulator does
// for its static experiments), protocol-level churn, ring invariant checks,
// and the paper's per-query metrics.
//
// One harness, Network, runs over two drivers. The goroutine driver built
// by Build gives every peer a mailbox goroutine on the in-process transport
// (optionally behind the fault layer) and waits on the wall clock. The
// discrete-event driver in internal/dessim runs the same peers on a virtual
// clock with zero goroutines per peer. Every helper is written once: invoke
// work on the peers, let the driver wait for the network to go idle, then
// read the results.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"squid/internal/chord"
	"squid/internal/keyspace"
	"squid/internal/sfc"
	"squid/internal/squid"
	"squid/internal/telemetry"
	"squid/internal/transport"
)

// Config describes a simulated network.
type Config struct {
	// Nodes is the initial network size.
	Nodes int
	// Space is the keyword space shared by all peers.
	Space *keyspace.Space
	// Seed drives all randomness (node identifiers).
	Seed int64
	// SuccListLen is each node's successor-list length (default 4).
	SuccListLen int
	// Engine configures every peer's Squid engine; its Sink is overridden
	// with the network's metrics collector.
	Engine squid.Options
	// Chord tunes every peer's RPC behavior (RPCTimeout, RPCRetries,
	// RPCBackoff, StabilizeEvery, ...). Space and SuccListLen are managed by
	// the simulator and ignored here.
	Chord chord.Config
	// Faults, when non-nil, wraps the in-process transport in a
	// deterministic fault-injecting layer (drops, delays, partitions,
	// crashes) exposed as Network.Faulty. Goroutine driver only.
	Faults *transport.FaultConfig
	// Trace enables distributed query tracing: every Query records its
	// reassembled refinement-tree spans in Network.Traces.
	Trace bool
	// CheckInvariants asserts the global ring invariants (chord.CheckRing)
	// after every StabilizeAll round. Violations are recorded to the
	// squid_ring_violations_total telemetry family; hard (non-transient)
	// violations also accumulate in Network.RingViolations, so a churn test
	// can drive arbitrary rounds and assert a single zero at the end.
	CheckInvariants bool
}

// Driver is what differs between the harness's execution backends: where
// peers attach, how a peer dies, and how the harness waits.
type Driver interface {
	// Listen attaches a peer's handler under addr.
	Listen(addr transport.Addr, h transport.Handler) (transport.Endpoint, error)
	// Kill detaches addr permanently.
	Kill(addr transport.Addr)
	// Crashed reports whether addr is black-holed (alive but unreachable).
	Crashed(addr transport.Addr) bool
	// Configure adjusts a new peer's engine and chord settings (clock,
	// worker pool) before the peer is built.
	Configure(opts *squid.Options, ccfg *chord.Config)
	// Quiesce returns once no message is in flight and no work is pending.
	Quiesce()
	// Await waits for done to close and the network to go idle. It reports
	// false if the network went idle with done still open.
	Await(done <-chan struct{}) bool
}

// ErrIncomplete reports that an operation's completion callback had not
// fired when the network went idle: its result path was lost (e.g. the
// initiator was killed) and no timer remained to recover it.
var ErrIncomplete = errors.New("sim: operation did not complete before the network went idle")

// Peer is one simulated participant.
type Peer struct {
	Node   *chord.Node
	Engine *squid.Engine
}

// ID returns the peer's ring identifier.
func (p *Peer) ID() chord.ID { return p.Node.Self().ID }

// Addr returns the peer's transport address.
func (p *Peer) Addr() transport.Addr { return p.Node.Self().Addr }

// Network is a simulated Squid deployment.
type Network struct {
	cfg Config
	drv Driver
	// Inproc is the goroutine driver's transport; nil on other drivers.
	Inproc *transport.Inproc
	// Faulty is the fault-injection layer; nil unless Config.Faults was set.
	Faulty  *transport.Faulty
	Space   *keyspace.Space
	Metrics *Metrics
	// Telemetry aggregates every peer's and transport layer's instruments.
	// Its clock is the driver's: none on the goroutine driver (timestamps
	// read as zero, so runs stay deterministic), virtual time on the event
	// core.
	Telemetry *telemetry.Registry
	// Traces holds reassembled query traces; nil unless Config.Trace was set.
	Traces *telemetry.TraceStore
	// Peers is sorted by ring identifier.
	Peers []*Peer

	rng     *rand.Rand
	nextIdx int

	ringViolations *telemetry.CounterVec
	hardViolations uint64
}

// Build constructs a network of cfg.Nodes peers with uniformly random
// identifiers on the goroutine driver, installs a consistent ring directly
// (oracle bootstrap — no join messages), and wires metrics. Use
// AddPeer/RemovePeer/KillPeer for protocol-level dynamics afterwards.
func Build(cfg Config) (*Network, error) { return BuildWithIDs(cfg, nil) }

// BuildWithIDs is Build with explicit node identifiers (tests).
func BuildWithIDs(cfg Config, ids []uint64) (*Network, error) {
	d := &goroutineDriver{}
	return BuildOn(cfg, d, telemetry.NewRegistry(nil), ids, func(nw *Network) {
		d.nw = nw
		nw.Inproc = transport.NewInproc()
		nw.Inproc.SetObserver(nw.Metrics.Observe)
		nw.Inproc.Instrument(nw.Telemetry)
		if cfg.Faults != nil {
			nw.Faulty = transport.NewFaulty(nw.Inproc, *cfg.Faults)
			nw.Faulty.Instrument(nw.Telemetry)
		}
	})
}

// BuildOn constructs a network over the given driver and telemetry
// registry. A nil ids draws cfg.Nodes identifiers with UniqueIDs. wire
// runs once the harness exists and before the first peer attaches, so the
// driver can install its transport observer.
func BuildOn(cfg Config, drv Driver, reg *telemetry.Registry, ids []uint64, wire func(*Network)) (*Network, error) {
	if cfg.Space == nil {
		return nil, fmt.Errorf("sim: nil keyword space")
	}
	if ids == nil && cfg.Nodes < 1 {
		return nil, fmt.Errorf("sim: need at least one node, got %d", cfg.Nodes)
	}
	nw := &Network{
		cfg:       cfg,
		drv:       drv,
		Space:     cfg.Space,
		Metrics:   NewMetrics(),
		Telemetry: reg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
	}
	if cfg.Trace {
		nw.Traces = telemetry.NewTraceStore(0)
	}
	nw.ringViolations = nw.Telemetry.CounterVec("squid_ring_violations_total",
		"ring invariant violations observed by the global checker", "kind")
	wire(nw)
	if ids == nil {
		ids = UniqueIDs(nw.rng, cfg.Nodes, chord.Space{Bits: cfg.Space.IndexBits()})
	}
	for _, id := range ids {
		p, err := nw.NewPeer(chord.ID(id))
		if err != nil {
			return nil, err
		}
		nw.Peers = append(nw.Peers, p)
	}
	nw.sortPeers()
	nw.installRing()
	return nw, nil
}

// UniqueIDs draws n distinct ring identifiers from rng over space. It is
// the single identifier-assignment rule of every driver, so the same seed
// builds the same ring on either — the property the cross-backend
// equivalence test pins.
func UniqueIDs(rng *rand.Rand, n int, space chord.Space) []uint64 {
	seen := make(map[uint64]bool, n)
	out := make([]uint64, 0, n)
	for len(out) < n {
		id := rng.Uint64() & space.Mask()
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// NewPeer builds a peer with the given identifier, attaches it to the
// driver under the next free address, and starts it. The peer is not yet
// a ring member: join it through the protocol, then Admit it.
func (nw *Network) NewPeer(id chord.ID) (*Peer, error) {
	opts := nw.cfg.Engine
	opts.Sink = nw.Metrics
	opts.Telemetry = nw.Telemetry
	opts.Traces = nw.Traces
	if opts.MaxInflight == 0 {
		// The deterministic experiments assert exact results and message
		// counts, which shedding would perturb: simulated peers run
		// effectively uncapped unless a test opts into admission control
		// explicitly. (On one CPU the delivery goroutine can outrun the
		// worker pool by far more than the production default allows.)
		opts.MaxInflight = 1 << 30
	}
	ccfg := nw.cfg.Chord
	ccfg.Space = chord.Space{Bits: nw.Space.IndexBits()}
	ccfg.SuccListLen = nw.cfg.SuccListLen
	ccfg.Telemetry = nw.Telemetry
	nw.drv.Configure(&opts, &ccfg)
	eng := squid.New(nw.Space, squid.FromOptions(opts))
	node := chord.NewNode(ccfg, id, eng)
	eng.Attach(node)
	addr := transport.Addr(fmt.Sprintf("p%d", nw.nextIdx))
	nw.nextIdx++
	ep, err := nw.drv.Listen(addr, node)
	if err != nil {
		return nil, err
	}
	node.Start(ep)
	nw.Metrics.RegisterAddr(addr, id)
	return &Peer{Node: node, Engine: eng}, nil
}

// Admit adds a joined peer to the ring-ordered peer table.
func (nw *Network) Admit(p *Peer) {
	nw.Peers = append(nw.Peers, p)
	nw.sortPeers()
}

// MustInvoke schedules fn on p's delivery context and panics if the node's
// endpoint refuses the work. Harness helpers pair an Invoke with a wait on
// the driver; a silently dropped Invoke error turns into a deadlock or a
// missing result (the hang class rpcerr exists to prevent), so in the
// deterministic harness a refused Invoke — the driver addressing a dead
// peer — fails loudly instead.
func MustInvoke(p *Peer, fn func()) {
	if err := p.Node.Invoke(fn); err != nil {
		panic(fmt.Sprintf("sim: Invoke on dead peer %s: %v", p.Addr(), err))
	}
}

func (nw *Network) sortPeers() {
	// The ring is kept as a linearly sorted snapshot; successorPeer handles
	// the wrap point by taking index 0 past the last peer.
	//lint:allow-ringcmp canonical linear order of the snapshot table; wrap handled in successorPeer
	sort.Slice(nw.Peers, func(i, j int) bool { return nw.Peers[i].ID() < nw.Peers[j].ID() })
}

// installRing writes consistent pred/succ/finger state into every peer
// directly.
func (nw *Network) installRing() {
	n := len(nw.Peers)
	succLen := nw.cfg.SuccListLen
	if succLen <= 0 {
		succLen = 4
	}
	space := chord.Space{Bits: nw.Space.IndexBits()}
	for i, p := range nw.Peers {
		pred := nw.Peers[(i+n-1)%n].Node.Self()
		var succs []chord.NodeRef
		for k := 1; k <= succLen && k < n+1; k++ {
			succs = append(succs, nw.Peers[(i+k)%n].Node.Self())
		}
		if len(succs) == 0 {
			succs = []chord.NodeRef{p.Node.Self()}
		}
		fingers := make([]chord.NodeRef, space.Bits)
		for b := 0; b < space.Bits; b++ {
			target := space.Add(p.ID(), uint64(1)<<uint(b))
			fingers[b] = nw.successorPeer(target).Node.Self()
		}
		MustInvoke(p, func() { p.Node.InstallRing(pred, succs, fingers) })
	}
	nw.drv.Quiesce()
}

// successorPeer returns the live peer owning the given identifier.
func (nw *Network) successorPeer(id chord.ID) *Peer {
	//lint:allow-ringcmp binary search over the sorted snapshot; the wrap-around successor is index 0, taken below
	i := sort.Search(len(nw.Peers), func(i int) bool { return nw.Peers[i].ID() >= id })
	if i == len(nw.Peers) {
		i = 0
	}
	return nw.Peers[i]
}

// SuccessorOf exposes the oracle owner of a curve index.
func (nw *Network) SuccessorOf(idx uint64) *Peer { return nw.successorPeer(chord.ID(idx)) }

// Quiesce waits for the network to go idle: no message in flight and no
// work pending on any peer.
func (nw *Network) Quiesce() { nw.drv.Quiesce() }

// Preload bulk-inserts elements at their owners directly (no routing
// messages), grouping by owner for efficiency. This mirrors the paper's
// simulator setup of 2*10^5..10^6 pre-placed keys.
func (nw *Network) Preload(elems []squid.Element) error {
	groups := make(map[*Peer][]squid.Element)
	for _, e := range elems {
		idx, err := nw.Space.Index(e.Values)
		if err != nil {
			return err
		}
		owner := nw.successorPeer(chord.ID(idx))
		groups[owner] = append(groups[owner], e)
	}
	for p, batch := range groups {
		MustInvoke(p, func() { _ = p.Engine.StoreDirectBatch(batch) })
	}
	nw.drv.Quiesce()
	return nil
}

// Publish routes an element through the overlay from the given peer and
// waits for the network to settle.
func (nw *Network) Publish(via int, elem squid.Element) error {
	p := nw.Peers[via]
	var err error
	MustInvoke(p, func() { err = p.Engine.Publish(elem) })
	nw.drv.Quiesce()
	return err
}

// Query runs a flexible query from the given peer, waits for its complete
// result, and returns it with the query's cost metrics. If the completion
// callback never fires — possible only under faults that strand the result
// path — the returned Result carries ErrIncomplete.
func (nw *Network) Query(via int, q keyspace.Query) (squid.Result, QueryMetrics) {
	p := nw.Peers[via]
	var (
		qid squid.QueryID
		res squid.Result
	)
	done := make(chan struct{})
	MustInvoke(p, func() {
		qid = p.Engine.Query(q, func(r squid.Result) { res = r; close(done) })
	})
	if !nw.drv.Await(done) {
		res = squid.Result{QID: qid, Query: q, Err: ErrIncomplete}
	}
	return res, nw.Metrics.ForQuery(qid)
}

// StreamResult captures one streaming query run end to end: the delivered
// batches in arrival order (Matches is their concatenation), the terminal
// error, and the resume cursor.
type StreamResult struct {
	QID     squid.QueryID
	Batches [][]squid.Element
	Matches []squid.Element
	Err     error
	Cursor  squid.Cursor
}

// QueryStream runs a streaming query from the given peer, drains it to
// completion, and returns the delivered batches with the query's cost
// metrics. Options pass through to the engine (Limit, WithCursor).
func (nw *Network) QueryStream(via int, q keyspace.Query, opts ...squid.QueryOption) (StreamResult, QueryMetrics) {
	p := nw.Peers[via]
	var sr StreamResult
	done := make(chan struct{})
	MustInvoke(p, func() {
		var err error
		sr.QID, err = p.Engine.QueryStreamFunc(context.Background(), q, func(ev squid.StreamEvent) {
			if ev.Done {
				sr.Err, sr.Cursor = ev.Err, ev.Cursor
				close(done)
				return
			}
			sr.Batches = append(sr.Batches, ev.Matches)
			sr.Matches = append(sr.Matches, ev.Matches...)
		}, opts...)
		if err != nil {
			sr.Err = err
			close(done)
		}
	})
	if !nw.drv.Await(done) {
		sr.Err = ErrIncomplete
	}
	return sr, nw.Metrics.ForQuery(sr.QID)
}

// CancelQuery cancels an in-flight query rooted at the given peer and
// reports whether it was still running. Quiesces so the teardown traffic is
// fully counted before the caller inspects metrics.
func (nw *Network) CancelQuery(via int, qid squid.QueryID) bool {
	p := nw.Peers[via]
	var found bool
	MustInvoke(p, func() { found = p.Engine.CancelQuery(qid) })
	nw.drv.Quiesce()
	return found
}

// QueryKeywords runs a position-free keyword query (combination tuples)
// from the given peer and waits for its complete result.
func (nw *Network) QueryKeywords(via int, words []string) squid.Result {
	p := nw.Peers[via]
	var res squid.Result
	done := make(chan struct{})
	MustInvoke(p, func() {
		p.Engine.QueryKeywords(words, func(r squid.Result) { res = r; close(done) })
	})
	if !nw.drv.Await(done) {
		return squid.Result{Err: ErrIncomplete}
	}
	return res
}

// BruteForceMatches scans every peer's store directly — the ground truth
// for the "all matches are found" guarantee.
func (nw *Network) BruteForceMatches(q keyspace.Query) []squid.Element {
	local := make([][]squid.Element, len(nw.Peers))
	for i, p := range nw.Peers {
		MustInvoke(p, func() {
			p.Engine.LocalStore().ScanSpan(fullSpan(nw.Space.IndexBits()), func(_ uint64, e squid.Element) {
				if nw.Space.Matches(q, e.Values) {
					local[i] = append(local[i], e)
				}
			})
		})
	}
	nw.drv.Quiesce()
	var out []squid.Element
	for _, l := range local {
		out = append(out, l...)
	}
	return out
}

// fullSpan is the whole index space as a scan interval.
func fullSpan(bits int) sfc.Interval {
	if bits >= 64 {
		return sfc.Interval{Lo: 0, Hi: ^uint64(0)}
	}
	return sfc.Interval{Lo: 0, Hi: (uint64(1) << bits) - 1}
}

// LoadVector returns the number of stored keys per peer, in ring order —
// the paper's Fig. 19 load-distribution data.
func (nw *Network) LoadVector() []int {
	out := make([]int, len(nw.Peers))
	for i, p := range nw.Peers {
		MustInvoke(p, func() { out[i] = p.Engine.LocalStore().Keys() })
	}
	nw.drv.Quiesce()
	return out
}

// AddPeer joins a new peer with the given identifier through the protocol
// (seeded at a random existing peer) and returns it.
func (nw *Network) AddPeer(id chord.ID) (*Peer, error) {
	p, err := nw.NewPeer(id)
	if err != nil {
		return nil, err
	}
	seed := nw.Peers[nw.rng.Intn(len(nw.Peers))]
	var joinErr error
	done := make(chan struct{})
	MustInvoke(p, func() { p.Node.Join(seed.Addr(), func(e error) { joinErr = e; close(done) }) })
	if !nw.drv.Await(done) {
		joinErr = ErrIncomplete
	}
	if joinErr != nil {
		nw.drv.Kill(p.Addr())
		return nil, joinErr
	}
	nw.Admit(p)
	return p, nil
}

// RemovePeer makes the peer at index i (in current ring order) leave
// voluntarily.
func (nw *Network) RemovePeer(i int) {
	p := nw.Peers[i]
	MustInvoke(p, p.Node.Leave)
	nw.drv.Quiesce()
	nw.KillPeer(i)
}

// KillPeer fails the peer at index i abruptly (no handover).
func (nw *Network) KillPeer(i int) {
	nw.drv.Kill(nw.Peers[i].Addr())
	nw.Peers = append(nw.Peers[:i], nw.Peers[i+1:]...)
}

// StabilizeAll runs the given number of stabilization rounds on every
// peer (stabilize + finger fix + predecessor check), quiescing between
// rounds. With Config.CheckInvariants set, the global ring checker runs
// after every round.
func (nw *Network) StabilizeAll(rounds int) {
	for r := 0; r < rounds; r++ {
		for _, p := range nw.Peers {
			MustInvoke(p, func() {
				p.Node.CheckPredecessor()
				p.Node.Stabilize()
				p.Node.FixFingers()
			})
		}
		nw.drv.Quiesce()
		if nw.cfg.CheckInvariants {
			nw.CheckRing()
		}
	}
}

// SnapshotRing captures every reachable peer's neighbor state. Peers
// currently black-holed by the fault layer are skipped: a crashed process
// is not a ring member, and its frozen state would read as stale garbage.
func (nw *Network) SnapshotRing() []chord.Snapshot {
	live := make([]*Peer, 0, len(nw.Peers))
	for _, p := range nw.Peers {
		if !nw.drv.Crashed(p.Addr()) {
			live = append(live, p)
		}
	}
	snaps := make([]chord.Snapshot, len(live))
	for i, p := range live {
		MustInvoke(p, func() { snaps[i] = p.Node.Snapshot() })
	}
	nw.drv.Quiesce()
	return snaps
}

// CheckRing snapshots the network and verifies the global ring invariants,
// recording every violation to the squid_ring_violations_total telemetry
// family and accumulating hard ones in RingViolations. It returns the
// round's violations (transient ones included) for callers that want the
// detail.
func (nw *Network) CheckRing() []chord.Violation {
	space := chord.Space{Bits: nw.Space.IndexBits()}
	vs := chord.CheckRing(space, nw.SnapshotRing())
	for _, v := range vs {
		nw.ringViolations.With(string(v.Kind)).Inc()
	}
	nw.hardViolations += uint64(len(chord.HardViolations(vs)))
	return vs
}

// RingViolations returns the cumulative count of hard (non-transient)
// invariant violations observed by CheckRing since the network was built.
// A churn test asserts this is zero after driving arbitrary rounds.
func (nw *Network) RingViolations() uint64 { return nw.hardViolations }

// PushReplicasAll makes every peer push replicas of its store to its
// successors (run after Preload when the engines have Replicas > 0).
func (nw *Network) PushReplicasAll() {
	for _, p := range nw.Peers {
		MustInvoke(p, func() { p.Engine.PushReplicas() })
	}
	nw.drv.Quiesce()
}

// VerifyConsistent checks that every peer's predecessor and successor
// match the oracle ring order and that every stored key lies within its
// holder's arc. It returns the first inconsistency found, or nil. Useful in
// tests after churn: queries are only guaranteed complete on a consistent
// ring with correctly placed data.
func (nw *Network) VerifyConsistent() error {
	n := len(nw.Peers)
	type snap struct {
		pred, succ chord.NodeRef
		keys       []uint64
	}
	snaps := make([]snap, n)
	for i, p := range nw.Peers {
		MustInvoke(p, func() {
			var keys []uint64
			p.Engine.LocalStore().ScanSpan(fullSpan(nw.Space.IndexBits()), func(k uint64, _ squid.Element) {
				if len(keys) == 0 || keys[len(keys)-1] != k {
					keys = append(keys, k)
				}
			})
			snaps[i] = snap{pred: p.Node.Pred(), succ: p.Node.Succ(), keys: keys}
		})
	}
	nw.drv.Quiesce()
	space := chord.Space{Bits: nw.Space.IndexBits()}
	for i, p := range nw.Peers {
		st := snaps[i]
		wantPred := nw.Peers[(i+n-1)%n].Node.Self()
		wantSucc := nw.Peers[(i+1)%n].Node.Self()
		if st.pred.Addr != wantPred.Addr {
			return fmt.Errorf("sim: peer %s pred=%s want %s", p.Node.Self(), st.pred, wantPred)
		}
		if st.succ.Addr != wantSucc.Addr {
			return fmt.Errorf("sim: peer %s succ=%s want %s", p.Node.Self(), st.succ, wantSucc)
		}
		for _, k := range st.keys {
			if !space.Between(chord.ID(k), wantPred.ID, p.ID()) {
				return fmt.Errorf("sim: peer %s holds key %x outside its arc (%x, %x]",
					p.Node.Self(), k, uint64(wantPred.ID), uint64(p.ID()))
			}
		}
	}
	return nil
}

// TotalKeys sums stored keys across peers.
func (nw *Network) TotalKeys() int {
	total := 0
	for _, n := range nw.LoadVector() {
		total += n
	}
	return total
}

// ChordCounters sums every live peer's RPC retry/backoff counters — the
// ring-level recovery cost under churn and faults. It is a convenience
// aggregation over per-node state; code that already holds
// Network.Telemetry can read the chord_rpc_* families directly.
func (nw *Network) ChordCounters() chord.Counters {
	var out chord.Counters
	for _, p := range nw.Peers {
		out.Add(p.Node.Counters())
	}
	return out
}

// TraceForQuery returns a query's reassembled refinement-tree trace.
// Requires Config.Trace; the trace is complete once Query has returned
// (result delivery happens-after the root records the trace).
func (nw *Network) TraceForQuery(qid squid.QueryID) (telemetry.Trace, bool) {
	if nw.Traces == nil {
		return telemetry.Trace{}, false
	}
	return nw.Traces.Get(qid)
}

// RecoveryCounters sums every live peer's query-recovery counters — the
// engine-level cost of riding out lost subtrees. Like ChordCounters it is a
// convenience aggregation; the squid_engine_recovery_total family in
// Network.Telemetry carries the same data per node.
func (nw *Network) RecoveryCounters() squid.RecoveryCounters {
	var out squid.RecoveryCounters
	for _, p := range nw.Peers {
		out.Add(p.Engine.Recovery())
	}
	return out
}

// goroutineDriver runs every peer as a mailbox goroutine on the in-process
// transport, behind the fault layer when one is configured, and waits on
// the wall clock.
type goroutineDriver struct{ nw *Network }

func (d *goroutineDriver) Listen(addr transport.Addr, h transport.Handler) (transport.Endpoint, error) {
	if d.nw.Faulty != nil {
		return d.nw.Faulty.Listen(addr, h)
	}
	return d.nw.Inproc.Listen(addr, h)
}

func (d *goroutineDriver) Kill(addr transport.Addr) {
	if d.nw.Faulty != nil {
		d.nw.Faulty.Kill(addr)
		return
	}
	d.nw.Inproc.Kill(addr)
}

func (d *goroutineDriver) Crashed(addr transport.Addr) bool {
	return d.nw.Faulty != nil && d.nw.Faulty.Crashed(addr)
}

// Configure keeps the options as given: real timers and the engine's
// default worker pool.
func (d *goroutineDriver) Configure(*squid.Options, *chord.Config) {}

// Quiesce waits for the network to go idle: no message in flight (including
// messages parked in the fault layer's delay queue, when one is installed)
// and no refinement job pending on any peer's query scheduler. The loop
// closes the handoff race between the two: a scheduler completion is a
// self-send that re-activates the transport, and a delivered message may
// admit new scheduler jobs — so the network is only idle once a full
// transport-and-scheduler sweep observed no new send at all (the in-process
// transport's activity counter is monotonic).
func (d *goroutineDriver) Quiesce() {
	for {
		before := d.nw.Inproc.Activity()
		d.transportQuiesce()
		for _, p := range d.nw.Peers {
			p.Engine.WaitIdle()
		}
		d.transportQuiesce()
		if d.nw.Inproc.Activity() == before {
			return
		}
	}
}

// transportQuiesce drains the transport stack alone.
func (d *goroutineDriver) transportQuiesce() {
	if d.nw.Faulty != nil {
		d.nw.Faulty.Quiesce()
		return
	}
	d.nw.Inproc.Quiesce()
}

// Await blocks until done closes, then quiesces so trailing replies are
// counted. It must block rather than trust an idle transport: on the wall
// clock a recovery timer can still complete the operation after the
// transport goes quiet.
func (d *goroutineDriver) Await(done <-chan struct{}) bool {
	<-done
	d.Quiesce()
	return true
}
