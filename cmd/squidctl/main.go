// Command squidctl is the client for live squid-node rings:
//
//	squidctl -node 127.0.0.1:7001 publish -values "computer,network" -data report.pdf
//	squidctl -node 127.0.0.1:7001 query "(comp*, *)"
//	squidctl -node 127.0.0.1:7001 status
//
// Against a node started with -http, it also reads telemetry:
//
//	squidctl -http 127.0.0.1:8080 metrics
//	squidctl -http 127.0.0.1:8080 trace          # list recorded traces
//	squidctl -http 127.0.0.1:8080 trace 42       # render one query tree
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"squid/internal/chord"
	"squid/internal/squid"
	"squid/internal/telemetry"
	"squid/internal/transport"
)

func main() {
	var (
		node     = flag.String("node", "127.0.0.1:7001", "address of any ring member")
		httpAddr = flag.String("http", "127.0.0.1:8080", "telemetry HTTP address of a node started with -http")
		timeout  = flag.Duration("timeout", 10*time.Second, "reply timeout")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: squidctl -node ADDR {publish -values a,b [-data NAME] | unpublish -values a,b [-data NAME] | query [-limit K] QUERY | status}\n")
		fmt.Fprintf(os.Stderr, "       squidctl -http ADDR {metrics | trace [QID]}\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	var err error
	switch args[0] {
	case "metrics", "trace":
		err = runHTTP(*httpAddr, *timeout, args)
	default:
		err = run(transport.Addr(*node), *timeout, args)
	}
	if err != nil {
		log.Fatalf("squidctl: %v", err)
	}
}

// runHTTP serves the telemetry subcommands against a node's -http endpoint.
func runHTTP(addr string, timeout time.Duration, args []string) error {
	cl := &http.Client{Timeout: timeout}
	get := func(path string) ([]byte, error) {
		resp, err := cl.Get("http://" + addr + path)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("%s: %s: %s", path, resp.Status, strings.TrimSpace(string(body)))
		}
		return body, nil
	}

	switch args[0] {
	case "metrics":
		body, err := get("/metrics")
		if err != nil {
			return err
		}
		os.Stdout.Write(body)
		return nil

	case "trace":
		if len(args) < 2 {
			body, err := get("/traces")
			if err != nil {
				return err
			}
			var list []struct {
				QID     uint64 `json:"qid"`
				Partial bool   `json:"partial"`
				Spans   int    `json:"spans"`
				Matches int    `json:"matches"`
				Nodes   int    `json:"nodes"`
			}
			if err := json.Unmarshal(body, &list); err != nil {
				return fmt.Errorf("decode /traces: %w", err)
			}
			if len(list) == 0 {
				fmt.Println("no traces recorded")
				return nil
			}
			fmt.Printf("%-20s %8s %8s %8s %s\n", "QID", "SPANS", "NODES", "MATCHES", "STATUS")
			for _, t := range list {
				status := "complete"
				if t.Partial {
					status = "partial"
				}
				fmt.Printf("%-20d %8d %8d %8d %s\n", t.QID, t.Spans, t.Nodes, t.Matches, status)
			}
			return nil
		}
		qid, err := strconv.ParseUint(args[1], 10, 64)
		if err != nil {
			return fmt.Errorf("trace: bad query id %q", args[1])
		}
		body, err := get("/trace?id=" + strconv.FormatUint(qid, 10))
		if err != nil {
			return err
		}
		var t telemetry.Trace
		if err := json.Unmarshal(body, &t); err != nil {
			return fmt.Errorf("decode /trace: %w", err)
		}
		t.Render(os.Stdout)
		return nil

	default:
		return fmt.Errorf("unknown telemetry command %q", args[0])
	}
}

// client is a minimal transport handler collecting replies.
type client struct {
	results chan any
}

func (c *client) Deliver(from transport.Addr, msg any) {
	select {
	case c.results <- msg:
	default:
	}
}

func run(node transport.Addr, timeout time.Duration, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("missing command (want publish, query or status)")
	}
	cl := &client{results: make(chan any, 4)}
	ep, err := transport.ListenTCP("127.0.0.1:0", cl)
	if err != nil {
		return err
	}
	defer func() { _ = ep.Close() }() // exit path: a failed detach has no consumer

	switch args[0] {
	case "publish":
		fs := flag.NewFlagSet("publish", flag.ExitOnError)
		values := fs.String("values", "", "comma-separated keyword values")
		data := fs.String("data", "", "payload name")
		fs.Parse(args[1:])
		if *values == "" {
			return fmt.Errorf("publish: -values required")
		}
		var vals []string
		for _, v := range strings.Split(*values, ",") {
			vals = append(vals, strings.TrimSpace(v))
		}
		msg := squid.ClientPublishMsg{
			Elem: squid.Element{Values: vals, Data: *data},
		}
		if err := ep.Send(node, msg); err != nil {
			return err
		}
		fmt.Printf("published %v via %s\n", vals, node)
		// Give the frame time to flush before closing the connection.
		time.Sleep(100 * time.Millisecond)
		return nil

	case "unpublish":
		fs := flag.NewFlagSet("unpublish", flag.ExitOnError)
		values := fs.String("values", "", "comma-separated keyword values")
		data := fs.String("data", "", "payload name")
		fs.Parse(args[1:])
		if *values == "" {
			return fmt.Errorf("unpublish: -values required")
		}
		var vals []string
		for _, v := range strings.Split(*values, ",") {
			vals = append(vals, strings.TrimSpace(v))
		}
		msg := squid.ClientUnpublishMsg{
			Elem: squid.Element{Values: vals, Data: *data},
		}
		if err := ep.Send(node, msg); err != nil {
			return err
		}
		fmt.Printf("unpublished %v via %s\n", vals, node)
		time.Sleep(100 * time.Millisecond)
		return nil

	case "query":
		fs := flag.NewFlagSet("query", flag.ExitOnError)
		limit := fs.Int("limit", 0, "stop after this many matches (top-k early termination; 0 = all)")
		fs.Parse(args[1:])
		if fs.NArg() < 1 {
			return fmt.Errorf("query: missing query string")
		}
		q := strings.Join(fs.Args(), " ")
		msg := squid.ClientQueryMsg{
			Query: q, ReplyTo: ep.Addr(), Token: uint64(time.Now().UnixNano()), Limit: *limit,
		}
		if err := ep.Send(node, msg); err != nil {
			return err
		}
		select {
		case got := <-cl.results:
			res, ok := got.(squid.ClientResultMsg)
			if !ok {
				return fmt.Errorf("unexpected reply %T", got)
			}
			if res.Err != "" {
				return fmt.Errorf("query failed: %s", res.Err)
			}
			fmt.Printf("%d matches for %s (query id %d)\n", len(res.Matches), q, res.QID)
			for _, m := range res.Matches {
				fmt.Printf("  %-24s %v\n", m.Data, m.Values)
			}
			return nil
		case <-time.After(timeout):
			return fmt.Errorf("no reply from %s within %v", node, timeout)
		}

	case "status":
		if err := ep.Send(node, chord.GetStateMsg{Token: 1, ReplyTo: ep.Addr()}); err != nil {
			return err
		}
		select {
		case got := <-cl.results:
			st, ok := got.(chord.StateMsg)
			if !ok {
				return fmt.Errorf("unexpected reply %T", got)
			}
			fmt.Printf("node   %s\n", st.Self)
			fmt.Printf("pred   %s\n", st.Pred)
			for i, s := range st.Succs {
				fmt.Printf("succ%d  %s\n", i, s)
			}
			fmt.Printf("load   %d keys\n", st.Load)
			return nil
		case <-time.After(timeout):
			return fmt.Errorf("no reply from %s within %v", node, timeout)
		}

	default:
		return fmt.Errorf("unknown command %q (want publish, unpublish, query or status)", args[0])
	}
}
