// Command squid-sim is an interactive REPL over a simulated Squid
// network: build a ring, load corpora, publish, query, churn peers and
// watch load balancing — the fastest way to explore the system's
// behaviour.
//
// Two backends share one command set. The default goroutine backend runs
// every peer as a real mailbox goroutine — faithful concurrency, best for
// poking at protocol behaviour up to a few hundred nodes. -backend=des
// runs the discrete-event simulator instead: zero goroutines, virtual
// time, planet-scale rings. The `scale` command runs a full paper-scale
// experiment on the event core regardless of the session backend.
//
//	$ go run ./cmd/squid-sim
//	squid> build 100
//	squid> load 20000
//	squid> query (comp*, *)
//	squid> scale 5000
//	squid> help
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"squid/internal/chord"
	"squid/internal/dessim"
	"squid/internal/keyspace"
	"squid/internal/loadbalance"
	"squid/internal/sim"
	"squid/internal/squid"
	"squid/internal/stats"
	"squid/internal/telemetry"
	"squid/internal/transport"
	"squid/internal/workload"
)

const helpText = `commands:
  build <nodes> [dims] [bits]   build a fresh network (default 2-D, 32-bit axes)
  load <keys>                   preload a synthetic keyword corpus
  publish <v1,v2,..> [name]     publish one element through a random peer
  query <query>                 run a flexible query, e.g. (comp*, *) or (10-20, *)
  keywords <w1> [w2..]          position-free keyword search (combination tuples)
  join [hex-id]                 protocol-join a new peer (random id if omitted)
  leave <i>                     peer i leaves voluntarily
  kill <i>                      peer i fails abruptly
  stabilize [rounds]            run stabilization rounds (default 3)
  balance [rounds]              run runtime load balancing (default 5)
  loads                         show the load distribution
  peers                         list peers with their loads
  verify                        check ring and data-placement consistency
  check                         run the global ring-invariant checker (Zave)
  faults <drop-rate>            inject message loss (0..1; 0 heals)
  crash <i> | restart <i>       black-hole / revive peer i (state survives)
  stats                         fault, retry and recovery counters
  trace [qid]                   render a query's refinement tree (default: last query)
  metrics                       dump the telemetry registry (Prometheus text)
  scale <nodes> [queries]       planet-scale churn + query storm on the event core
  help                          this text
  quit`

// faultSurface is the fault-injection controls shared by the goroutine
// stack's fault layer (transport.Faulty) and the event-core transport
// (dessim.Net).
type faultSurface interface {
	SetDropRate(p float64)
	Crash(name transport.Addr)
	Restart(name transport.Addr)
	Stats() transport.FaultStats
}

type session struct {
	backend string // "goroutine" (default) or "des"
	net     *sim.Network
	faults  faultSurface
	rng     *rand.Rand
}

func main() {
	backend := flag.String("backend", "goroutine",
		"simulator backend: goroutine (one mailbox goroutine per peer) or des (discrete-event, virtual time)")
	flag.Parse()
	if *backend != "goroutine" && *backend != "des" {
		fmt.Fprintf(os.Stderr, "unknown backend %q (want goroutine or des)\n", *backend)
		os.Exit(2)
	}
	fmt.Printf("squid-sim — interactive Squid network simulator (%s backend). Type 'help'.\n", *backend)
	s := &session{backend: *backend, rng: rand.New(rand.NewSource(1))}
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("squid> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "quit" || line == "exit" {
			return
		}
		if line != "" {
			if err := s.exec(line); err != nil {
				fmt.Println("error:", err)
			}
		}
		fmt.Print("squid> ")
	}
}

func (s *session) exec(line string) error {
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "help":
		fmt.Println(helpText)
		return nil
	case "build":
		return s.build(args)
	case "scale":
		return s.scale(args)
	}
	if s.net == nil {
		return fmt.Errorf("no network yet; use: build <nodes>")
	}
	switch cmd {
	case "load":
		return s.load(args)
	case "publish":
		return s.publish(args)
	case "query":
		return s.query(strings.TrimSpace(strings.TrimPrefix(line, "query")))
	case "keywords":
		return s.keywords(args)
	case "join":
		return s.join(args)
	case "leave":
		return s.leave(args, false)
	case "kill":
		return s.leave(args, true)
	case "stabilize":
		rounds := atoiDefault(args, 0, 3)
		s.net.StabilizeAll(rounds)
		fmt.Printf("ran %d stabilization rounds\n", rounds)
		return nil
	case "balance":
		rounds, err := loadbalance.Balance(s.net, 2.0, atoiDefault(args, 0, 5))
		if err != nil {
			return err
		}
		fmt.Printf("balanced in %d rounds; gini now %.3f\n", rounds, stats.Gini(s.net.LoadVector()))
		return nil
	case "loads":
		v := s.net.LoadVector()
		sum := stats.Summarize(v)
		fmt.Printf("peers=%d keys=%d mean=%.1f max=%d p95=%.0f cov=%.2f gini=%.3f\n",
			len(v), s.net.TotalKeys(), sum.Mean, sum.Max, sum.P95, sum.CoV, stats.Gini(v))
		return nil
	case "peers":
		loads := s.net.LoadVector()
		for i, p := range s.net.Peers {
			fmt.Printf("%3d  id=%016x  keys=%d\n", i, uint64(p.ID()), loads[i])
		}
		return nil
	case "verify":
		if err := s.net.VerifyConsistent(); err != nil {
			return err
		}
		fmt.Println("ring and data placement consistent")
		return nil
	case "check":
		return s.check()
	case "faults":
		return s.setFaults(args)
	case "crash":
		return s.crash(args, true)
	case "restart":
		return s.crash(args, false)
	case "stats":
		return s.stats()
	case "trace":
		return s.trace(args)
	case "metrics":
		return s.net.Telemetry.WritePrometheus(os.Stdout)
	}
	return fmt.Errorf("unknown command %q (try 'help')", cmd)
}

func (s *session) setFaults(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: faults <drop-rate>")
	}
	rate, err := strconv.ParseFloat(args[0], 64)
	if err != nil || rate < 0 || rate > 1 {
		return fmt.Errorf("drop rate must be in [0, 1]")
	}
	s.faults.SetDropRate(rate)
	if rate == 0 {
		fmt.Println("faults cleared; run 'stabilize' to restore full recall")
	} else {
		fmt.Printf("dropping %.0f%% of messages; queries now degrade instead of hang\n", rate*100)
	}
	return nil
}

func (s *session) crash(args []string, down bool) error {
	verb := map[bool]string{true: "crash", false: "restart"}[down]
	if len(args) != 1 {
		return fmt.Errorf("usage: %s <peer-index>", verb)
	}
	peers := s.net.Peers
	i, err := strconv.Atoi(args[0])
	if err != nil || i < 0 || i >= len(peers) {
		return fmt.Errorf("peer index out of range (0..%d)", len(peers)-1)
	}
	addr := peers[i].Addr()
	if down {
		s.faults.Crash(addr)
		fmt.Printf("peer %d black-holed (state survives; 'restart %d' revives it)\n", i, i)
	} else {
		s.faults.Restart(addr)
		fmt.Printf("peer %d back online\n", i)
	}
	return nil
}

// check runs the global ring-invariant checker over a snapshot of every
// reachable peer — the machine check for Zave's membership invariants.
// Transient violations (dead arc boundaries awaiting rectify) are reported
// but distinguished from hard protocol failures.
func (s *session) check() error {
	vs := s.net.CheckRing()
	if len(vs) == 0 {
		fmt.Println("all ring invariants hold (ordered ring, one ring, connected, valid successor lists, ownership partition)")
		return nil
	}
	hard := 0
	for _, v := range vs {
		tag := "HARD     "
		if v.Transient() {
			tag = "transient"
		} else {
			hard++
		}
		fmt.Printf("  %s  %s\n", tag, v.Error())
	}
	fmt.Printf("%d violations (%d hard, %d transient); 'stabilize' heals transient ones\n",
		len(vs), hard, len(vs)-hard)
	return nil
}

func (s *session) stats() error {
	fs := s.faults.Stats()
	cc := s.net.ChordCounters()
	rc := s.net.RecoveryCounters()
	fmt.Printf("transport: delivered=%d dropped=%d delayed=%d partition-drops=%d crash-drops=%d\n",
		fs.Delivered, fs.Dropped, fs.Delayed, fs.PartitionDrops, fs.CrashDrops)
	fmt.Printf("chord rpc: find-retries=%d find-failures=%d state-retries=%d state-failures=%d\n",
		cc.FindRetries, cc.FindFailures, cc.StateRetries, cc.StateFailures)
	fmt.Printf("recovery:  redispatches=%d abandoned=%d partial-results=%d acks=%d\n",
		rc.Redispatches, rc.Abandoned, rc.Partials, rc.Acks)
	return nil
}

func (s *session) build(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: build <nodes> [dims] [bits]")
	}
	nodes, err := strconv.Atoi(args[0])
	if err != nil {
		return err
	}
	dims, bits := 2, 32
	if len(args) > 1 {
		if dims, err = strconv.Atoi(args[1]); err != nil {
			return err
		}
	}
	if len(args) > 2 {
		if bits, err = strconv.Atoi(args[2]); err != nil {
			return err
		}
	}
	space, err := keyspace.NewWordSpace(dims, bits)
	if err != nil {
		return err
	}
	if s.backend == "des" {
		nw, err := dessim.Build(dessim.Config{
			Nodes: nodes, Space: space, Seed: s.rng.Int63(),
			// The full recovery stack on virtual time: generous deadlines
			// cost nothing in wall clock, and impatient ones re-dispatch
			// subtrees that are still working.
			Engine: squid.Options{
				Replicas:       2,
				SubtreeTimeout: 8 * time.Second,
				QueryDeadline:  2 * time.Minute,
			},
			Chord: chord.Config{
				RPCTimeout: 400 * time.Millisecond,
				RPCRetries: 4,
				RPCBackoff: 10 * time.Millisecond,
			},
			// Realistic wide-area latency; 'faults <rate>' adds loss.
			Net: dessim.NetConfig{
				Seed:       s.rng.Int63(),
				MinLatency: 5 * time.Millisecond,
				MaxLatency: 80 * time.Millisecond,
			},
			Trace:           true,
			CheckInvariants: true,
		})
		if err != nil {
			return err
		}
		s.net, s.faults = nw.Network, nw.Net
		fmt.Printf("built %d-peer event-core network over a %d-D, %d-bit keyword space\n", nodes, dims, bits)
		return nil
	}
	nw, err := sim.Build(sim.Config{
		Nodes: nodes, Space: space, Seed: s.rng.Int63(),
		// The full recovery stack, so 'faults' and 'crash' demonstrate
		// graceful degradation instead of a hung REPL.
		Engine: squid.Options{
			Replicas:       2,
			SubtreeTimeout: 150 * time.Millisecond,
			QueryDeadline:  10 * time.Second,
		},
		// Zero backoff keeps retries inside the quiesce window, so the
		// synchronous 'stabilize' command still heals deterministically.
		Chord: chord.Config{
			RPCTimeout: 100 * time.Millisecond,
			RPCRetries: 4,
		},
		Faults: &transport.FaultConfig{Seed: s.rng.Int63()},
		Trace:  true,
		// Every 'stabilize' round also runs the ring-invariant checker;
		// 'check' runs it on demand and 'metrics' shows the counts.
		CheckInvariants: true,
	})
	if err != nil {
		return err
	}
	s.net, s.faults = nw, nw.Faulty
	fmt.Printf("built %d-peer network over a %d-D, %d-bit keyword space\n", nodes, dims, bits)
	return nil
}

// scale runs a self-contained planet-scale experiment on the event core —
// bootstrap, Zipf corpus, invariant-checked stabilization, then a churn +
// query storm — and reports virtual time, events/sec, and the outcome. It
// leaves the session's network untouched, so it works from either backend.
func (s *session) scale(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: scale <nodes> [queries]")
	}
	nodes, err := strconv.Atoi(args[0])
	if err != nil || nodes < 2 {
		return fmt.Errorf("scale: need at least 2 nodes")
	}
	queries := atoiDefault(args, 1, 200)
	seed := s.rng.Int63()
	space, err := keyspace.NewWordSpace(2, 16)
	if err != nil {
		return err
	}
	start := time.Now()
	nw, err := dessim.Build(dessim.Config{
		Nodes: nodes, Space: space, Seed: seed,
		Net: dessim.NetConfig{
			Seed:       seed + 1,
			MinLatency: 5 * time.Millisecond,
			MaxLatency: 80 * time.Millisecond,
			DropRate:   0.005,
		},
		Chord: chord.Config{
			RPCTimeout: 400 * time.Millisecond,
			RPCRetries: 3,
			RPCBackoff: 10 * time.Millisecond,
		},
		Engine: squid.Options{
			SubtreeTimeout: 8 * time.Second,
			SubtreeRetries: 2,
			QueryDeadline:  2 * time.Minute,
		},
		CheckInvariants: true,
	})
	if err != nil {
		return err
	}
	vocab := workload.NewVocabulary(seed+2, 2000, 1.2)
	if err := nw.Preload(workload.Elements(workload.KeyTuples(vocab, seed+3, 4*nodes, 2))); err != nil {
		return err
	}
	nw.StabilizeAll(5)
	churn := nodes / 200
	storm := nw.RunStorm(dessim.StormConfig{
		Seed:            seed + 4,
		Queries:         queries,
		Vocab:           vocab,
		Dims:            2,
		Joins:           churn,
		Kills:           churn,
		StabilizeRounds: 5,
	})
	elapsed := time.Since(start)
	hard := len(chord.HardViolations(nw.CheckRing()))
	fmt.Printf("%d nodes, %d keys, %d queries, %d joins + %d kills under 0.5%% loss:\n",
		nodes, 4*nodes, queries, churn, churn)
	fmt.Printf("  %s\n", storm)
	fmt.Printf("  %d events in %v (%.0f events/sec); virtual %v; hard ring violations %d\n",
		nw.Core.Steps(), elapsed.Round(time.Millisecond),
		float64(nw.Core.Steps())/elapsed.Seconds(), nw.Core.Elapsed().Round(time.Second), hard)
	return nil
}

func (s *session) load(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: load <keys>")
	}
	keys, err := strconv.Atoi(args[0])
	if err != nil {
		return err
	}
	vocab := workload.NewVocabulary(s.rng.Int63(), maxInt(200, keys/20), 1.2)
	tuples := workload.KeyTuples(vocab, s.rng.Int63(), keys, s.net.Space.Dims())
	if err := s.net.Preload(workload.Elements(tuples)); err != nil {
		return err
	}
	fmt.Printf("loaded %d tuples (%d distinct index keys); try: query (%s*, *)\n",
		keys, s.net.TotalKeys(), vocab.Words[0][:3])
	return nil
}

func (s *session) publish(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: publish <v1,v2,..> [name]")
	}
	values := strings.Split(args[0], ",")
	name := "unnamed"
	if len(args) > 1 {
		name = strings.Join(args[1:], " ")
	}
	via := s.rng.Intn(len(s.net.Peers))
	if err := s.net.Publish(via, squid.Element{Values: values, Data: name}); err != nil {
		return err
	}
	fmt.Printf("published %v as %q via peer %d\n", values, name, via)
	return nil
}

func (s *session) query(qs string) error {
	if qs == "" {
		return fmt.Errorf("usage: query (terms...)")
	}
	q, err := keyspace.Parse(qs)
	if err != nil {
		return err
	}
	res, qm := s.net.Query(s.rng.Intn(len(s.net.Peers)), q)
	if res.Err != nil && !errors.Is(res.Err, squid.ErrPartialResult) {
		return res.Err
	}
	fmt.Printf("%d matches  routing=%d processing=%d data=%d messages=%d  (qid %d; 'trace' renders the tree)\n",
		len(res.Matches), len(qm.RoutingNodes), len(qm.ProcessingNodes), len(qm.DataNodes), qm.Messages(), res.QID)
	if qm.Redispatches > 0 || qm.Abandoned > 0 {
		fmt.Printf("recovery: %d subtree re-dispatches, %d abandoned\n", qm.Redispatches, qm.Abandoned)
	}
	if res.Err != nil {
		fmt.Printf("PARTIAL result: %v\n", res.Err)
	}
	printMatches(res.Matches)
	return nil
}

func (s *session) keywords(words []string) error {
	if len(words) == 0 {
		return fmt.Errorf("usage: keywords <w1> [w2..]")
	}
	res := s.net.QueryKeywords(s.rng.Intn(len(s.net.Peers)), words)
	if res.Err != nil {
		return res.Err
	}
	fmt.Printf("%d matches\n", len(res.Matches))
	printMatches(res.Matches)
	return nil
}

func (s *session) trace(args []string) error {
	traces := s.net.Traces
	if traces == nil {
		return fmt.Errorf("tracing is not enabled on this network")
	}
	var (
		t  telemetry.Trace
		ok bool
	)
	if len(args) > 0 {
		qid, err := strconv.ParseUint(args[0], 10, 64)
		if err != nil {
			return fmt.Errorf("trace: bad query id %q", args[0])
		}
		t, ok = traces.Get(telemetry.QueryID(qid))
	} else {
		t, ok = traces.Last()
	}
	if !ok {
		return fmt.Errorf("no trace recorded (run a query first)")
	}
	t.Render(os.Stdout)
	return nil
}

func printMatches(ms []squid.Element) {
	for i, m := range ms {
		if i == 10 {
			fmt.Printf("  ... and %d more\n", len(ms)-10)
			return
		}
		fmt.Printf("  %-28s %v\n", m.Data, m.Values)
	}
}

func (s *session) join(args []string) error {
	var id chord.ID
	if len(args) > 0 {
		v, err := strconv.ParseUint(args[0], 16, 64)
		if err != nil {
			return err
		}
		id = chord.ID(v)
	} else {
		id = chord.ID(s.rng.Uint64() & ((uint64(1) << s.net.Space.IndexBits()) - 1))
	}
	p, err := s.net.AddPeer(id)
	if err != nil {
		return err
	}
	fmt.Printf("peer %016x joined (%d peers now)\n", uint64(p.ID()), len(s.net.Peers))
	return nil
}

func (s *session) leave(args []string, kill bool) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: %s <peer-index>", map[bool]string{true: "kill", false: "leave"}[kill])
	}
	peers := s.net.Peers
	i, err := strconv.Atoi(args[0])
	if err != nil || i < 0 || i >= len(peers) {
		return fmt.Errorf("peer index out of range (0..%d)", len(peers)-1)
	}
	id := peers[i].ID()
	if kill {
		s.net.KillPeer(i)
		fmt.Printf("peer %016x failed abruptly; run 'stabilize' to heal\n", uint64(id))
	} else {
		s.net.RemovePeer(i)
		fmt.Printf("peer %016x left gracefully\n", uint64(id))
	}
	return nil
}

func atoiDefault(args []string, i, def int) int {
	if i < len(args) {
		if v, err := strconv.Atoi(args[i]); err == nil && v > 0 {
			return v
		}
	}
	return def
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
