package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"squid/internal/chord"
	"squid/internal/dessim"
	"squid/internal/sim"
	"squid/internal/squid"
	"squid/internal/telemetry"
	"squid/internal/transport"
	"squid/internal/wire"
)

// ring is one built system under test: the members in ring order plus the
// handles the harness measures it through.
type ring struct {
	in    *inputs
	peers []*sim.Peer // ascending identifier, parallel to in.ids
	reg   *telemetry.Registry

	// traced-pass extras; nil in the end-to-end pass
	traces *telemetry.TraceStore
	sink   *sim.Metrics
	tap    *msgTap

	des    *dessim.Network          // backendDES
	inproc *transport.Inproc        // backendInproc
	eps    []*transport.TCPEndpoint // backendTCP
	meter  *wireMeter               // message and byte counts where no socket counts them
}

// wireMeter is the transport observer of the in-process and event-core
// rings: it counts messages between distinct members and what they would
// weigh framed on a socket.
type wireMeter struct {
	msgs  atomic.Uint64
	bytes atomic.Uint64
	encs  sync.Pool
	tap   *msgTap
}

const frameHeader = 4 // the TCP transport's length prefix

func newWireMeter(tap *msgTap) *wireMeter {
	return &wireMeter{encs: sync.Pool{New: func() any { return new(wire.Encoder) }}, tap: tap}
}

func (m *wireMeter) observe(from, to transport.Addr, msg any) {
	if from == to {
		return // Invoke closures and scheduler completions never leave the node
	}
	enc := m.encs.Get().(*wire.Encoder)
	enc.Reset()
	if wire.EncodeMessage(enc, msg) {
		m.msgs.Add(1)
		m.bytes.Add(uint64(enc.Len() + frameHeader))
	}
	m.encs.Put(enc)
	if m.tap != nil {
		m.tap.offer(msg)
	}
}

// msgTap keeps an evenly spaced sample of the workload's own messages for
// the codec probes.
type msgTap struct {
	mu   sync.Mutex
	seen int
	msgs []any
}

func (t *msgTap) offer(msg any) {
	t.mu.Lock()
	t.seen++
	if len(t.msgs) < tapSampleCap && t.seen%7 == 0 {
		t.msgs = append(t.msgs, msg)
	}
	t.mu.Unlock()
}

// tapHandler samples what a TCP member receives before the node sees it.
type tapHandler struct {
	next transport.Handler
	tap  *msgTap
}

func (h tapHandler) Deliver(from transport.Addr, msg any) {
	h.tap.offer(msg)
	h.next.Deliver(from, msg)
}

// engineOptions is the engine configuration every workload shares.
func engineOptions(sp spec, reg *telemetry.Registry, traces *telemetry.TraceStore, sink *sim.Metrics) []squid.Option {
	opts := []squid.Option{
		squid.WithTelemetry(reg),
		squid.WithProbeCache(probeCacheSize),
		squid.WithSubtreeTimeout(subtreeTimeout),
		squid.WithQueryDeadline(queryDeadline),
	}
	if sp.resultCache > 0 {
		opts = append(opts, squid.WithResultCache(sp.resultCache))
	}
	if sp.uncapped {
		// As internal/sim does: a goroutine ring on two cores lets the
		// delivery goroutine outrun the worker pool by far more than the
		// production admission cap allows.
		opts = append(opts, squid.WithMaxInflight(1<<30))
	}
	if traces != nil {
		opts = append(opts, squid.WithTraces(traces))
	}
	if sink != nil {
		opts = append(opts, squid.WithSink(sink))
	}
	return opts
}

// build brings up the workload's ring, preloads the corpus and returns it
// ready for the warm-up pass. traced turns the program's tracing on.
func build(in *inputs, traced bool) (*ring, error) {
	if in.spec.backend == backendDES {
		return buildDES(in, traced)
	}
	return buildLive(in, traced)
}

func buildDES(in *inputs, traced bool) (*ring, error) {
	sp := in.spec
	nw, err := dessim.BuildWithIDs(dessim.Config{
		Space: in.space,
		Seed:  in.seed,
		Net: dessim.NetConfig{
			Seed:       in.seed + 1,
			MinLatency: desMinLatency,
			MaxLatency: desMaxLatency,
		},
		Chord: chord.Config{RPCTimeout: rpcTimeout},
		Engine: squid.Options{
			ProbeCacheSize:  probeCacheSize,
			SubtreeTimeout:  subtreeTimeout,
			QueryDeadline:   queryDeadline,
			ResultCacheSize: sp.resultCache,
		},
		Trace: traced,
	}, in.ids)
	if err != nil {
		return nil, err
	}
	r := &ring{in: in, peers: nw.Peers, reg: nw.Telemetry, traces: nw.Traces, des: nw}
	if traced {
		r.tap = &msgTap{}
		r.sink = nw.Metrics
	}
	r.meter = newWireMeter(r.tap)
	observe := r.meter.observe
	if traced {
		// Keep the simulator's per-query accounting alive beside the meter.
		observe = func(from, to transport.Addr, msg any) {
			nw.Metrics.Observe(from, to, msg)
			r.meter.observe(from, to, msg)
		}
	}
	nw.Net.SetObserver(observe)
	if err := nw.Preload(in.corpus); err != nil {
		return nil, err
	}
	return r, nil
}

func buildLive(in *inputs, traced bool) (*ring, error) {
	sp := in.spec
	r := &ring{in: in, reg: telemetry.NewRegistry(time.Now)}
	if traced {
		r.traces = telemetry.NewTraceStore(4 * sampledQueries)
		r.sink = sim.NewMetrics()
		r.tap = &msgTap{}
	}
	if sp.backend == backendInproc {
		r.inproc = transport.NewInproc()
		r.inproc.Instrument(r.reg)
		r.meter = newWireMeter(r.tap)
		r.inproc.SetObserver(r.meter.observe)
	}
	for i, id := range in.ids {
		eng := squid.New(in.space, engineOptions(sp, r.reg, r.traces, r.sink)...)
		node := chord.NewNode(chord.Config{
			Space:      chord.Space{Bits: in.space.IndexBits()},
			RPCTimeout: rpcTimeout,
			Telemetry:  r.reg,
		}, chord.ID(id), eng)
		eng.Attach(node)
		var ep transport.Endpoint
		if sp.backend == backendTCP {
			var h transport.Handler = node
			if traced {
				h = tapHandler{next: node, tap: r.tap}
			}
			tcp, err := transport.ListenTCP("127.0.0.1:0", h)
			if err != nil {
				r.close()
				return nil, err
			}
			tcp.Instrument(r.reg)
			r.eps = append(r.eps, tcp)
			ep = tcp
		} else {
			var err error
			if ep, err = r.inproc.Listen(transport.Addr(fmt.Sprintf("p%d", i)), node); err != nil {
				r.close()
				return nil, err
			}
		}
		node.Start(ep)
		p := &sim.Peer{Node: node, Engine: eng}
		if r.sink != nil {
			r.sink.RegisterAddr(p.Addr(), p.ID())
		}
		r.peers = append(r.peers, p)
	}
	var err error
	if sp.backend == backendTCP {
		err = r.joinAll()
	} else {
		err = r.installRing()
	}
	if err == nil {
		err = r.preload()
	}
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// call runs fn on p's delivery goroutine and waits for it.
func call(p *sim.Peer, fn func()) error {
	done := make(chan struct{})
	if err := p.Node.Invoke(func() { fn(); close(done) }); err != nil {
		return err
	}
	<-done
	return nil
}

// oracleNeighbors returns what member i's predecessor, successor list and
// fingers are on a converged ring.
func (r *ring) oracleNeighbors(i int) (pred chord.NodeRef, succs, fingers []chord.NodeRef) {
	n := len(r.peers)
	pred = r.peers[(i+n-1)%n].Node.Self()
	for k := 1; k <= 4 && k <= n; k++ {
		succs = append(succs, r.peers[(i+k)%n].Node.Self())
	}
	space := chord.Space{Bits: r.in.space.IndexBits()}
	fingers = make([]chord.NodeRef, space.Bits)
	for b := range fingers {
		target := space.Add(r.peers[i].ID(), uint64(1)<<uint(b))
		fingers[b] = r.peers[r.in.ownerOf(uint64(target))].Node.Self()
	}
	return pred, succs, fingers
}

// installRing writes converged neighbor state into every member directly,
// as internal/sim's oracle bootstrap does.
func (r *ring) installRing() error {
	for i, p := range r.peers {
		pred, succs, fingers := r.oracleNeighbors(i)
		if err := call(p, func() { p.Node.InstallRing(pred, succs, fingers) }); err != nil {
			return err
		}
	}
	return nil
}

// joinAll forms the ring through the protocol: the first member creates it,
// the rest Join one at a time, then stabilization runs until every member's
// neighbors and fingers equal the converged ring's.
func (r *ring) joinAll() error {
	first := r.peers[0]
	if err := call(first, first.Node.Create); err != nil {
		return err
	}
	for _, p := range r.peers[1:] {
		joined := make(chan error, 1)
		if err := p.Node.Invoke(func() { p.Node.Join(first.Addr(), func(err error) { joined <- err }) }); err != nil {
			return err
		}
		select {
		case err := <-joined:
			if err != nil {
				return fmt.Errorf("join %s: %w", p.Addr(), err)
			}
		case <-time.After(queryDeadline):
			return fmt.Errorf("join %s: timed out", p.Addr())
		}
	}
	deadline := time.Now().Add(queryDeadline)
	for round := 0; ; round++ {
		converged := true
		for i, p := range r.peers {
			wantPred, wantSuccs, wantFingers := r.oracleNeighbors(i)
			var ok bool
			if err := call(p, func() {
				ok = p.Node.Pred().Addr == wantPred.Addr && p.Node.Succ().Addr == wantSuccs[0].Addr
				if ok {
					for b, f := range p.Node.Fingers() {
						ok = ok && f.Addr == wantFingers[b].Addr
					}
				}
				if !ok {
					p.Node.CheckPredecessor()
					p.Node.Stabilize()
					p.Node.RebuildFingers()
				}
			}); err != nil {
				return err
			}
			converged = converged && ok
		}
		if converged {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ring did not converge in %v (%d rounds)", queryDeadline, round)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// preload places every corpus element at its owner directly, the way the
// paper's simulator pre-places keys.
func (r *ring) preload() error {
	groups := make([][]squid.Element, len(r.peers))
	for i, e := range r.in.corpus {
		o := r.in.ownerOf(r.in.index[i])
		groups[o] = append(groups[o], e)
	}
	for i, p := range r.peers {
		if len(groups[i]) == 0 {
			continue
		}
		batch := groups[i]
		var err error
		if cerr := call(p, func() { err = p.Engine.StoreDirectBatch(batch) }); cerr != nil {
			return cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// close stops the ring's endpoints and waits for their listeners to end.
func (r *ring) close() {
	for _, ep := range r.eps {
		_ = ep.Close() // shutting down; nothing to do with a close error
	}
	if r.inproc != nil {
		for _, p := range r.peers {
			r.inproc.Kill(p.Addr())
		}
	}
}

// traffic returns the cumulative messages and framed bytes members have
// sent each other.
func (r *ring) traffic() (msgs, bytes uint64) {
	if r.meter != nil {
		return r.meter.msgs.Load(), r.meter.bytes.Load()
	}
	frames := r.reg.CounterVec("squid_transport_tcp_frames_total", "", "codec")
	for _, codec := range []string{"binary", "gob", "gob_fallback"} {
		msgs += frames.With(codec).Value()
	}
	return msgs, r.reg.Counter("squid_transport_tcp_bytes_written_total", "").Value()
}
