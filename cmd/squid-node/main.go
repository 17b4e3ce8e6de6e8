// Command squid-node runs one Squid peer over TCP: the same engine the
// simulator drives, attached to a real network endpoint.
//
// Start a ring:
//
//	squid-node -listen 127.0.0.1:7001 -create
//
// Join it:
//
//	squid-node -listen 127.0.0.1:7002 -join 127.0.0.1:7001
//
// All peers of one ring must agree on -dims and -bits. Interact with the
// ring using squidctl.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"squid/internal/chord"
	"squid/internal/keyspace"
	"squid/internal/squid"
	"squid/internal/telemetry"
	"squid/internal/transport"
)

// config carries every squid-node flag.
type config struct {
	listen     string
	create     bool
	join       string
	dims, bits int
	id         uint64
	stabilize  time.Duration
	statePath  string
	replicas   int
	rpcRetries int
	rpcBackoff time.Duration
	httpAddr   string
	workers    int
	inflight   int
}

func main() {
	var cfg config
	flag.StringVar(&cfg.listen, "listen", "127.0.0.1:0", "address to listen on")
	flag.BoolVar(&cfg.create, "create", false, "create a new ring")
	flag.StringVar(&cfg.join, "join", "", "address of a ring member to join through")
	flag.IntVar(&cfg.dims, "dims", 2, "keyword space dimensionality")
	flag.IntVar(&cfg.bits, "bits", 32, "bits per keyword dimension")
	flag.Uint64Var(&cfg.id, "id", 0, "node identifier (0: random)")
	flag.DurationVar(&cfg.stabilize, "stabilize", 2*time.Second, "stabilization interval")
	flag.StringVar(&cfg.statePath, "state", "", "path for persisted store state (loaded at start, saved on exit)")
	flag.IntVar(&cfg.replicas, "replicas", 0, "successor replicas kept per stored item")
	flag.IntVar(&cfg.rpcRetries, "rpc-retries", 3, "retries per failed ring RPC (0: fail fast)")
	flag.DurationVar(&cfg.rpcBackoff, "rpc-backoff", 100*time.Millisecond, "delay before the first RPC retry (doubles per retry, jittered)")
	flag.StringVar(&cfg.httpAddr, "http", "", "serve telemetry over HTTP on this address: /metrics, /traces, /trace?id=N (empty: disabled)")
	flag.IntVar(&cfg.workers, "workers", 0, "query scheduler worker pool size (0: GOMAXPROCS clamped to [2,8]; negative: serial processing)")
	flag.IntVar(&cfg.inflight, "max-inflight", 0, "refinement jobs admitted before the node sheds load (0: 16x workers, min 64)")
	flag.Parse()
	if err := run(cfg); err != nil {
		log.Fatalf("squid-node: %v", err)
	}
}

func run(cfg config) error {
	if cfg.create == (cfg.join != "") {
		return fmt.Errorf("pass exactly one of -create or -join")
	}
	space, err := keyspace.NewWordSpace(cfg.dims, cfg.bits)
	if err != nil {
		return err
	}
	ring := chord.Space{Bits: space.IndexBits()}
	id := cfg.id
	if id == 0 {
		id = rand.New(rand.NewSource(time.Now().UnixNano())).Uint64() & ring.Mask()
	}

	reg := telemetry.NewRegistry(time.Now)
	traces := telemetry.NewTraceStore(0)
	// Over a real network queries must degrade, not hang: lost subtrees
	// are re-dispatched and eventually surfaced as partial results.
	engOpts := []squid.Option{
		squid.WithReplication(cfg.replicas),
		squid.WithSubtreeTimeout(5 * time.Second),
		squid.WithQueryDeadline(60 * time.Second),
		squid.WithWorkers(cfg.workers),
		squid.WithMaxInflight(cfg.inflight),
		squid.WithTelemetry(reg),
		squid.WithTraces(traces),
	}
	eng := squid.New(space, engOpts...)
	node := chord.NewNode(chord.Config{
		Space:      ring,
		RPCTimeout: 5 * time.Second,
		RPCRetries: cfg.rpcRetries,
		RPCBackoff: cfg.rpcBackoff,
		Telemetry:  reg,
	}, chord.ID(id), eng)
	eng.Attach(node)

	ep, err := transport.ListenTCP(cfg.listen, node)
	if err != nil {
		return err
	}
	defer func() { _ = ep.Close() }() // exit path: a failed detach has no consumer
	ep.Instrument(reg)
	node.Start(ep)

	log.Printf("squid-node %x listening on %s (%d-D keyword space, %d-bit axes)",
		uint64(node.Self().ID), ep.Addr(), cfg.dims, cfg.bits)

	if cfg.httpAddr != "" {
		ln, err := net.Listen("tcp", cfg.httpAddr)
		if err != nil {
			return fmt.Errorf("telemetry listen %s: %w", cfg.httpAddr, err)
		}
		defer ln.Close()
		go func() { _ = http.Serve(ln, telemetry.NewHandler(reg, traces)) }()
		log.Printf("telemetry HTTP on http://%s (/metrics, /traces, /trace?id=N)", ln.Addr())
	}

	if cfg.statePath != "" {
		if f, err := os.Open(cfg.statePath); err == nil {
			done := make(chan error, 1)
			if ierr := node.Invoke(func() { done <- eng.LoadState(f) }); ierr != nil {
				done <- ierr // endpoint gone: report it as the load outcome
			}
			loadErr := <-done
			f.Close()
			if loadErr != nil {
				return fmt.Errorf("load state %s: %w", cfg.statePath, loadErr)
			}
			log.Printf("loaded persisted state from %s", cfg.statePath)
		} else if !os.IsNotExist(err) {
			return err
		}
	}
	if cfg.create {
		if err := node.Invoke(node.Create); err != nil {
			return err
		}
		log.Printf("created new ring")
	} else {
		done := make(chan error, 1)
		if err := node.Invoke(func() {
			node.Join(transport.Addr(cfg.join), func(err error) { done <- err })
		}); err != nil {
			return err
		}
		if err := <-done; err != nil {
			return fmt.Errorf("join via %s: %w", cfg.join, err)
		}
		log.Printf("joined ring via %s", cfg.join)
		if cfg.statePath != "" {
			if err := node.Invoke(func() {
				if n := eng.ReconcileOwnership(); n > 0 {
					log.Printf("re-routed %d restored items to their current owners", n)
				}
				if cfg.replicas > 0 {
					eng.PushReplicas()
				}
			}); err != nil {
				return fmt.Errorf("reconcile restored state: %w", err)
			}
		}
	}

	ticker := time.NewTicker(cfg.stabilize)
	defer ticker.Stop()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	for {
		select {
		case <-ticker.C:
			if err := node.Invoke(func() {
				node.CheckPredecessor()
				node.Stabilize()
				node.FixFingers()
				// Re-push replicas every round so successor-list changes
				// (joins, failures) restore the replication factor before
				// the next fault can strike.
				if cfg.replicas > 0 {
					eng.PushReplicas()
				}
			}); err != nil {
				return fmt.Errorf("stabilize tick: endpoint lost: %w", err)
			}
		case s := <-sigc:
			log.Printf("received %v: leaving ring", s)
			if cfg.statePath != "" {
				saveState(node, eng, cfg.statePath)
			}
			left := make(chan struct{})
			if err := node.Invoke(func() {
				node.Leave()
				close(left)
			}); err != nil {
				log.Printf("leave: endpoint already gone: %v", err)
				close(left) // nothing to wait for; fall through to the timeout select
			}
			select {
			case <-left:
			case <-time.After(3 * time.Second):
			}
			return nil
		}
	}
}

// saveState snapshots the engine's store to disk (atomically via a temp
// file).
func saveState(node *chord.Node, eng *squid.Engine, path string) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		log.Printf("save state: %v", err)
		return
	}
	done := make(chan error, 1)
	if ierr := node.Invoke(func() { done <- eng.SaveState(f) }); ierr != nil {
		done <- ierr // endpoint gone: report it as the save outcome instead of deadlocking below
	}
	err = <-done
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		log.Printf("save state: %v", err)
		os.Remove(tmp)
		return
	}
	log.Printf("state saved to %s", path)
}
