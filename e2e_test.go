package main

import (
	"bytes"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestBinariesEndToEnd builds the real squid-node and squidctl binaries,
// boots a three-node ring over TCP, publishes and queries through the CLI,
// and shuts the ring down — the full production path, process boundaries
// included.
func TestBinariesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	nodeBin := filepath.Join(dir, "squid-node")
	ctlBin := filepath.Join(dir, "squidctl")
	for _, b := range []struct{ out, pkg string }{
		{nodeBin, "./cmd/squid-node"},
		{ctlBin, "./cmd/squidctl"},
	} {
		cmd := exec.Command("go", "build", "-o", b.out, b.pkg)
		cmd.Env = os.Environ()
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", b.pkg, err, out)
		}
	}

	addrs := []string{freeAddr(t), freeAddr(t), freeAddr(t)}
	var procs []*exec.Cmd
	defer func() {
		var live []*exec.Cmd
		for _, p := range procs {
			if p.ProcessState == nil { // not reaped by the departure below
				live = append(live, p)
			}
		}
		stopNodes(t, live)
	}()

	start := func(args ...string) *exec.Cmd {
		cmd := exec.Command(nodeBin, args...)
		cmd.SysProcAttr = daemonAttr()
		var logBuf bytes.Buffer
		cmd.Stdout = &logBuf
		cmd.Stderr = &logBuf
		if err := cmd.Start(); err != nil {
			t.Fatalf("start %v: %v", args, err)
		}
		procs = append(procs, cmd)
		t.Cleanup(func() {
			if t.Failed() {
				t.Logf("node %v log:\n%s", args, logBuf.String())
			}
		})
		return cmd
	}

	httpAddr := freeAddr(t)
	start("-listen", addrs[0], "-create", "-dims", "2", "-bits", "16", "-stabilize", "200ms")
	waitListening(t, addrs[0])
	start("-listen", addrs[1], "-join", addrs[0], "-dims", "2", "-bits", "16", "-stabilize", "200ms")
	waitListening(t, addrs[1])
	// The third node serves telemetry; queries below run through it, so its
	// trace store holds their reassembled query trees.
	start("-listen", addrs[2], "-join", addrs[0], "-dims", "2", "-bits", "16", "-stabilize", "200ms", "-http", httpAddr)
	waitListening(t, addrs[2])

	ctl := func(args ...string) (string, error) {
		out, err := exec.Command(ctlBin, args...).CombinedOutput()
		return string(out), err
	}

	// Publish through different members.
	docs := [][2]string{
		{"computer,network", "netdoc"},
		{"computer,graphics", "gfxdoc"},
		{"database,systems", "dbdoc"},
	}
	for i, d := range docs {
		out, err := ctl("-node", addrs[i%3], "publish", "-values", d[0], "-data", d[1])
		if err != nil {
			t.Fatalf("publish: %v\n%s", err, out)
		}
	}

	// Query until the routed publishes land (poll briefly).
	deadline := time.Now().Add(15 * time.Second)
	var lastOut string
	for time.Now().Before(deadline) {
		out, err := ctl("-node", addrs[2], "-timeout", "5s", "query", "(comp*, *)")
		if err == nil && strings.Contains(out, "2 matches") {
			lastOut = out
			break
		}
		lastOut = out
		time.Sleep(200 * time.Millisecond)
	}
	if !strings.Contains(lastOut, "2 matches") {
		t.Fatalf("query did not find both computer docs:\n%s", lastOut)
	}
	if !strings.Contains(lastOut, "netdoc") || !strings.Contains(lastOut, "gfxdoc") {
		t.Errorf("query output missing docs:\n%s", lastOut)
	}

	// Telemetry over HTTP, consumed by squidctl: Prometheus metrics, the
	// trace listing, and the rendered query tree of the query that just ran.
	waitListening(t, httpAddr)
	out, err := ctl("-http", httpAddr, "metrics")
	if err != nil {
		t.Fatalf("squidctl metrics: %v\n%s", err, out)
	}
	for _, want := range []string{"squid_engine_queries_total", "squid_transport_tcp_sent_total", "squid_chord_stabilize_rounds_total"} {
		if !strings.Contains(out, want) {
			t.Errorf("squidctl metrics missing %s:\n%s", want, out)
		}
	}
	qidMatch := regexp.MustCompile(`query id (\d+)`).FindStringSubmatch(lastOut)
	if qidMatch == nil {
		t.Fatalf("query output has no query id:\n%s", lastOut)
	}
	qid := qidMatch[1]
	if out, err = ctl("-http", httpAddr, "trace"); err != nil {
		t.Fatalf("squidctl trace: %v\n%s", err, out)
	} else if !strings.Contains(out, qid) {
		t.Errorf("trace listing missing query %s:\n%s", qid, out)
	}
	if out, err = ctl("-http", httpAddr, "trace", qid); err != nil {
		t.Fatalf("squidctl trace %s: %v\n%s", qid, err, out)
	} else if !strings.Contains(out, "query "+qid+": complete") || !strings.Contains(out, "root") {
		t.Errorf("rendered trace malformed:\n%s", out)
	}

	// Unpublish through the CLI; the doc must disappear.
	if out, err := ctl("-node", addrs[0], "unpublish", "-values", "computer,graphics", "-data", "gfxdoc"); err != nil {
		t.Fatalf("unpublish: %v\n%s", err, out)
	}
	deadline = time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		out, err := ctl("-node", addrs[2], "-timeout", "5s", "query", "(comp*, *)")
		if err == nil && strings.Contains(out, "1 matches") && !strings.Contains(out, "gfxdoc") {
			break
		}
		lastOut = out
		time.Sleep(200 * time.Millisecond)
	}

	// Status through the CLI.
	out, err = ctl("-node", addrs[1], "status")
	if err != nil {
		t.Fatalf("status: %v\n%s", err, out)
	}
	if !strings.Contains(out, "pred") || !strings.Contains(out, "load") {
		t.Errorf("status output malformed:\n%s", out)
	}

	// Graceful shutdown of one node must not break the others.
	stopNodes(t, procs[1:2])
	deadline = time.Now().Add(15 * time.Second)
	ok := false
	for time.Now().Before(deadline) {
		out, err := ctl("-node", addrs[0], "-timeout", "5s", "query", "(database, *)")
		if err == nil && strings.Contains(out, "1 matches") {
			ok = true
			break
		}
		time.Sleep(300 * time.Millisecond)
	}
	if !ok {
		t.Error("query after graceful departure failed")
	}
}

// stopGrace bounds a daemon's exit after SIGTERM; squid-node's graceful
// leave waits at most 3 s.
const stopGrace = 10 * time.Second

// stopNodes sends SIGTERM to each daemon and reaps it. One still running
// stopGrace later is killed, and the test fails naming it.
func stopNodes(t *testing.T, procs []*exec.Cmd) {
	t.Helper()
	exited := make(chan *exec.Cmd)
	for _, p := range procs {
		p.Process.Signal(syscall.SIGTERM)
		go func() {
			p.Wait()
			exited <- p
		}()
	}
	running := map[*exec.Cmd]bool{}
	for _, p := range procs {
		running[p] = true
	}
	grace := time.After(stopGrace)
	for len(running) > 0 {
		select {
		case p := <-exited:
			delete(running, p)
		case <-grace:
			for p := range running {
				t.Errorf("squid-node %v still running %v after SIGTERM: killed", p.Args[1:], stopGrace)
				p.Process.Kill()
			}
		}
	}
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func waitListening(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			c.Close()
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("%s never started listening", addr)
}
