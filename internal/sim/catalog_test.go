package sim

import (
	"bufio"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"squid/internal/transport"
)

// TestMetricCatalogMatchesDesign keeps DESIGN.md §4f's metric table equal
// to what the registry exports: every family a simulated ring plus one
// instrumented TCP endpoint registers is in the table, and every family in
// the table is registered.
func TestMetricCatalogMatchesDesign(t *testing.T) {
	nw, err := Build(Config{Nodes: 4, Space: testSpace(t), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := transport.ListenTCP("127.0.0.1:0", transport.HandlerFunc(func(transport.Addr, any) {}))
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	ep.Instrument(nw.Telemetry)

	var sb strings.Builder
	if err := nw.Telemetry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	exported := map[string]bool{}
	for _, line := range strings.Split(sb.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			exported[f[2]] = true
		}
	}

	documented := designCatalog(t, "../../DESIGN.md")
	if len(documented) == 0 {
		t.Fatal("no metric table found in DESIGN.md §4f")
	}
	for _, name := range sortedKeys(exported) {
		if !documented[name] {
			t.Errorf("%s is exported but missing from DESIGN.md §4f", name)
		}
	}
	for _, name := range sortedKeys(documented) {
		if !exported[name] {
			t.Errorf("%s is in DESIGN.md §4f but not exported", name)
		}
	}
}

// designCatalog reads the family names from the first column of the
// metric table in DESIGN.md §4f. Names there omit the squid_ prefix.
func designCatalog(t *testing.T, path string) map[string]bool {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	name := regexp.MustCompile("`([a-z0-9_]+)`")
	out := map[string]bool{}
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "## ") {
			in = strings.HasPrefix(line, "## 4f.")
			continue
		}
		if !in || !strings.HasPrefix(line, "| `") {
			continue
		}
		first := strings.SplitN(line, "|", 3)[1]
		for _, m := range name.FindAllStringSubmatch(first, -1) {
			out["squid_"+m[1]] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
