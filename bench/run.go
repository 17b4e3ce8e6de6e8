package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"squid/internal/keyspace"
	"squid/internal/sim"
	"squid/internal/squid"
)

// answer is what a client saw of one streaming query.
type answer struct {
	qid    squid.QueryID
	count  int
	digest uint64
	total  time.Duration // call to terminal event
	first  time.Duration // call to first non-empty batch; 0 when none came
	cursor squid.Cursor
	err    error
}

// stream runs one QueryStream call from a client goroutine against a live
// member and drains it. keep, when non-nil, receives every delivered batch.
func stream(via *sim.Peer, q keyspace.Query, keep func([]squid.Element), opts ...squid.QueryOption) answer {
	var (
		a  answer
		rs *squid.ResultStream
	)
	start := time.Now()
	if err := call(via, func() { rs, a.err = via.Engine.QueryStream(context.Background(), q, opts...) }); err != nil {
		a.err = err
	}
	if a.err != nil {
		a.total = time.Since(start)
		return a
	}
	for {
		batch, ok := rs.Next()
		if !ok {
			break
		}
		if a.first == 0 {
			a.first = time.Since(start)
		}
		for _, e := range batch {
			a.digest += elemHash(e)
		}
		a.count += len(batch)
		if keep != nil {
			keep(batch)
		}
	}
	a.total = time.Since(start)
	a.qid = rs.QID()
	a.err = rs.Err()
	a.cursor = rs.Cursor()
	return a
}

// tally accumulates one client's (or the event loop's) observations. Each
// client owns one, so the measured path takes no lock.
type tally struct {
	ops, failed int
	queries     int
	lat, first  []time.Duration // per query
	pubLat      []time.Duration // per publish call
	firstErr    error
}

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

func (t *tally) query(a answer) {
	t.ops++
	t.queries++
	t.lat = append(t.lat, a.total)
	if a.first > 0 {
		t.first = append(t.first, a.first)
	}
}

func (t *tally) merge(o *tally) {
	t.ops += o.ops
	t.failed += o.failed
	t.queries += o.queries
	t.lat = append(t.lat, o.lat...)
	t.first = append(t.first, o.first...)
	t.pubLat = append(t.pubLat, o.pubLat...)
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// checkFull holds a complete answer against the oracle.
func checkFull(t *tally, in *inputs, qi int, a answer) {
	ex := in.expect[qi]
	switch {
	case a.err != nil:
		t.fail(fmt.Errorf("query %s: %w", in.pool[qi], a.err))
	case a.count != ex.count || a.digest != ex.digest:
		t.fail(fmt.Errorf("query %s: got %d matches (digest %x), oracle has %d (%x)",
			in.pool[qi], a.count, a.digest, ex.count, ex.digest))
	}
}

// driver issues a workload's operations round by round. A round is a fixed
// operation sequence, so every round of a run does the same work.
type driver interface {
	// round runs the r-th round to completion and returns its tallies
	// (one per client) and wall time.
	round(r int) ([]*tally, time.Duration)
}

// mixDriver: closed-loop clients cycling the query pool through rotating
// members (tcp-mix, inproc-range).
type mixDriver struct {
	ring *ring
	hook func(client int, qi int, start time.Time, a answer) // traced pass
}

func (d *mixDriver) round(r int) ([]*tally, time.Duration) {
	in := d.ring.in
	sp := in.spec
	tallies := make([]*tally, sp.clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < sp.clients; c++ {
		t := &tally{lat: make([]time.Duration, 0, sp.roundOps), first: make([]time.Duration, 0, sp.roundOps)}
		tallies[c] = t
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := c; j < sp.roundOps; j += sp.clients {
				qi := j % len(in.pool)
				via := d.ring.entry(j, r)
				t0 := time.Now()
				a := stream(via, in.pool[qi], nil)
				t.query(a)
				checkFull(t, in, qi, a)
				if d.hook != nil {
					d.hook(c, qi, t0, a)
				}
			}
		}(c)
	}
	wg.Wait()
	return tallies, time.Since(start)
}

// desDriver: open-loop arrivals on the event core. Latencies are virtual
// and timed from the instant each query was due.
type desDriver struct {
	ring *ring
	hook func(qi int, due, end time.Duration, a answer) // traced pass
	// keepMetrics leaves the simulator's per-query accounting in place
	// after a round, for the traced pass to read.
	keepMetrics bool
}

func (d *desDriver) round(r int) ([]*tally, time.Duration) {
	in := d.ring.in
	sp := in.spec
	nw := d.ring.des
	t := &tally{lat: make([]time.Duration, 0, sp.roundOps), first: make([]time.Duration, 0, sp.roundOps)}
	base := nw.Core.Elapsed()
	for j := 0; j < sp.roundOps; j++ {
		qi := j % len(in.pool)
		via := d.ring.entry(j, r)
		due := time.Duration(j) * time.Second / time.Duration(sp.arrivalPerSec)
		nw.Schedule(due, func() {
			var a answer
			finish := func() {
				a.total = nw.Core.Elapsed() - base - due
				t.query(a)
				checkFull(t, in, qi, a)
				if d.hook != nil {
					d.hook(qi, base+due, nw.Core.Elapsed(), a)
				}
			}
			if err := via.Node.Invoke(func() {
				var err error
				a.qid, err = via.Engine.QueryStreamFunc(nil, in.pool[qi], func(ev squid.StreamEvent) {
					if ev.Done {
						a.err = ev.Err
						finish()
						return
					}
					if a.first == 0 && len(ev.Matches) > 0 {
						a.first = nw.Core.Elapsed() - base - due
					}
					for _, e := range ev.Matches {
						a.digest += elemHash(e)
					}
					a.count += len(ev.Matches)
				})
				if err != nil {
					a.err = err
					finish()
				}
			}); err != nil {
				a.err = err
				finish()
			}
		})
	}
	start := time.Now()
	nw.Run()
	wall := time.Since(start)
	if missing := sp.roundOps - t.ops; missing > 0 {
		// The event queue drained with queries still open: they lost their
		// result path. Count them as attempted and failed.
		t.ops += missing
		t.queries += missing
		for i := 0; i < missing; i++ {
			t.fail(errors.New("query did not complete before the event queue drained"))
		}
	}
	if !d.keepMetrics {
		nw.Metrics.Reset() // the simulator's per-query maps would otherwise grow with every round
	}
	return []*tally{t}, wall
}

// measured is the outcome of one measured phase.
type measured struct {
	tally
	rounds   int
	roundOps []float64     // ops per second of each round
	inRounds time.Duration // wall time spent inside rounds
	wall     time.Duration

	msgs, bytes uint64 // ring traffic over the phase (round 0 only on DES)
	events      uint64 // event-core steps (DES; round 0 only)
	eventsAll   uint64 // event-core steps over the whole phase
	trafficQ    int    // queries the traffic figures cover

	mallocs, allocBytes uint64
	heapLive            uint64
	gcCycles            uint32
	gcCPU, totalCPU     float64 // seconds, runtime/metrics classes
	rusageCPU           time.Duration
	goroutines          int
	calib               []float64 // ms per calibration loop, one per round
}

// measure runs rounds of drv for at least d and returns what it saw. The
// collector runs once before the clock starts; GOGC stays at its default.
// calib times the calibration loop after every round (traced pass), not
// only after the first.
func measure(r *ring, drv driver, d time.Duration, calib bool) *measured {
	m := &measured{}
	des := r.in.spec.backend == backendDES
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := readCPU()
	msgs0, bytes0 := r.traffic()
	var steps0 uint64
	if des {
		steps0 = r.des.Core.Steps()
	}
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < d; round++ {
		tallies, wall := drv.round(round)
		ops := 0
		for _, t := range tallies {
			ops += t.ops
			if des && round > 0 {
				// Virtual latencies of later rounds depend on how many
				// rounds fit in the time; keep only the counts.
				t.lat, t.first = nil, nil
			}
			m.merge(t)
		}
		m.roundOps = append(m.roundOps, float64(ops)/wall.Seconds())
		m.inRounds += wall
		if des && round == 0 {
			msgs1, bytes1 := r.traffic()
			m.msgs, m.bytes = msgs1-msgs0, bytes1-bytes0
			m.events = r.des.Core.Steps() - steps0
			m.trafficQ = m.queries
		}
		m.rounds++
		if calib || round == 0 {
			m.calib = append(m.calib, calibrate())
		}
	}
	m.wall = time.Since(start)
	m.goroutines = runtime.NumGoroutine()
	runtime.ReadMemStats(&ms1)
	cpu1 := readCPU()
	if des {
		m.eventsAll = r.des.Core.Steps() - steps0
	} else {
		msgs1, bytes1 := r.traffic()
		m.msgs, m.bytes = msgs1-msgs0, bytes1-bytes0
		m.trafficQ = m.queries
	}
	m.mallocs = ms1.Mallocs - ms0.Mallocs
	m.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	m.gcCycles = ms1.NumGC - ms0.NumGC
	m.gcCPU, m.totalCPU = cpu1.gc-cpu0.gc, cpu1.total-cpu0.total
	m.rusageCPU = cpu1.rusage - cpu0.rusage
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	m.heapLive = ms1.HeapAlloc
	return m
}

// timing returns the phase's four timing metrics by name.
func (m *measured) timing() map[string]float64 {
	return map[string]float64{
		"ops_per_s":          median(m.roundOps),
		"query_p50_ms":       ms(percentile(m.lat, 0.5)),
		"query_p99_ms":       ms(percentile(m.lat, 0.99)),
		"first_match_p50_ms": ms(percentile(m.first, 0.5)),
	}
}

// warmupRound is the round index of the warm-up pass. Entry members rotate
// with the round, so measured round 0 is not a replay of the warm-up.
const warmupRound = -1

// entry returns the member the j-th operation of round r enters through.
func (r *ring) entry(j, round int) *sim.Peer {
	n := len(r.peers)
	return r.peers[((j+round)%n+n)%n]
}

// warmup is the last step of set-up: one full round, so connections are
// dialled, the wire codec negotiated and the probe caches filled. Its
// answers are checked like any other.
func warmup(drv driver) error {
	tallies, _ := drv.round(warmupRound)
	for _, t := range tallies {
		if t.failed > 0 {
			return fmt.Errorf("warm-up: %d of %d operations failed: %w", t.failed, t.ops, t.firstErr)
		}
	}
	return nil
}

// newDriver returns the driver for r's workload.
func newDriver(r *ring) driver {
	switch {
	case r.in.spec.backend == backendDES:
		return &desDriver{ring: r}
	case r.in.spec.mix == mixBrowse:
		return newBrowseDriver(r)
	default:
		return &mixDriver{ring: r}
	}
}

// setup builds the ring and warms it up, returning how long that took.
func setup(in *inputs, traced bool) (*ring, driver, time.Duration, error) {
	start := time.Now()
	r, err := build(in, traced)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("build: %w", err)
	}
	drv := newDriver(r)
	if err := warmup(drv); err != nil {
		r.close()
		return nil, nil, 0, err
	}
	return r, drv, time.Since(start), nil
}

// percentile returns the p-quantile (0..1) of ds by nearest rank; ds is
// sorted in place.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(p*float64(len(ds))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(ds) {
		i = len(ds) - 1
	}
	return ds[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
