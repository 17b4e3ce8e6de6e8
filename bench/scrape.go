package main

import (
	"bufio"
	"bytes"
	"sort"
	"strconv"
	"strings"

	"squid/internal/telemetry"
)

// series is one sample line of the registry's Prometheus exposition: the
// benchmark reads the program's counters the way an operator's scraper
// would, from outside.
type series struct {
	name   string // family name, with _bucket/_sum/_count for histograms
	labels string // the text between the braces
	value  float64
}

// scrape is one reading of a registry.
type scrape []series

func scrapeRegistry(reg *telemetry.Registry) scrape {
	var buf bytes.Buffer
	// Writes to a bytes.Buffer cannot fail.
	_ = reg.WritePrometheus(&buf)
	var out scrape
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		s := series{name: line[:sp], value: v}
		if b := strings.IndexByte(s.name, '{'); b >= 0 {
			s.labels = strings.TrimSuffix(s.name[b+1:], "}")
			s.name = s.name[:b]
		}
		out = append(out, s)
	}
	return out
}

// sum adds up every series of a family whose labels contain each of want
// (e.g. `outcome="hit"`), across all nodes.
func (s scrape) sum(name string, want ...string) float64 {
	total := 0.0
next:
	for _, x := range s {
		if x.name != name {
			continue
		}
		for _, w := range want {
			if !strings.Contains(x.labels, w) {
				continue next
			}
		}
		total += x.value
	}
	return total
}

// delta is the growth of a family between two scrapes.
func delta(before, after scrape, name string, want ...string) float64 {
	return after.sum(name, want...) - before.sum(name, want...)
}

// histQuantile estimates the q-quantile of a histogram family's growth
// between two scrapes, summed over nodes, by linear interpolation inside
// the bucket that holds it. The +Inf bucket reports its lower bound.
func histQuantile(before, after scrape, name string, q float64) float64 {
	type bucket struct {
		le    float64
		count float64
	}
	byLE := map[string]float64{}
	for _, x := range after {
		if x.name == name+"_bucket" {
			byLE[leOf(x.labels)] += x.value
		}
	}
	for _, x := range before {
		if x.name == name+"_bucket" {
			byLE[leOf(x.labels)] -= x.value
		}
	}
	var buckets []bucket
	var inf float64
	for le, c := range byLE {
		if le == "+Inf" {
			inf = c
			continue
		}
		v, err := strconv.ParseFloat(le, 64)
		if err == nil {
			buckets = append(buckets, bucket{v, c})
		}
	}
	if inf == 0 {
		return 0
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	rank := q * inf
	lo, below := 0.0, 0.0
	for _, b := range buckets {
		if b.count >= rank {
			if b.count == below {
				return lo
			}
			return lo + (b.le-lo)*(rank-below)/(b.count-below)
		}
		lo, below = b.le, b.count
	}
	return lo
}

func leOf(labels string) string {
	i := strings.Index(labels, `le="`)
	if i < 0 {
		return ""
	}
	rest := labels[i+4:]
	if j := strings.IndexByte(rest, '"'); j >= 0 {
		return rest[:j]
	}
	return ""
}
