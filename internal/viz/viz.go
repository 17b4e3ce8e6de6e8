// Package viz renders the experiment harness's data as terminal charts, so
// cmd/squid-figures output visually mirrors the paper's figures: line-ish
// series for the scaling sweeps (Figs. 9-17), histograms for the index and
// load distributions (Figs. 18-19).
package viz

import (
	"fmt"
	"io"
	"strings"
)

// blocks are eighth-step bar glyphs, lowest to highest.
var blocks = []rune(" ▁▂▃▄▅▆▇█")

// Sparkline renders values as a one-line unicode bar chart scaled to the
// maximum value.
func Sparkline(values []int) string {
	if len(values) == 0 {
		return ""
	}
	max := 0
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range values {
		i := 0
		if max > 0 {
			i = v * (len(blocks) - 1) / max
		}
		b.WriteRune(blocks[i])
	}
	return b.String()
}

// Histogram prints a labelled horizontal bar chart, one row per value.
func Histogram(w io.Writer, title string, labels []string, values []int, width int) {
	if width <= 0 {
		width = 50
	}
	max := 0
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	labelW := 0
	for _, l := range labels {
		if len(l) > labelW {
			labelW = len(l)
		}
	}
	if title != "" {
		fmt.Fprintln(w, title)
	}
	for i, v := range values {
		label := ""
		if i < len(labels) {
			label = labels[i]
		}
		n := 0
		if max > 0 {
			n = v * width / max
		}
		fmt.Fprintf(w, "%-*s │%s%s %d\n", labelW, label, strings.Repeat("█", n), strings.Repeat(" ", width-n), v)
	}
}

// Series prints one line per named series with a sparkline over the
// x-points and the first/last values, the terminal analogue of the paper's
// scaling plots.
func Series(w io.Writer, title string, xLabels []string, series map[string][]int, order []string) {
	if title != "" {
		fmt.Fprintln(w, title)
	}
	if len(xLabels) > 0 {
		fmt.Fprintf(w, "%-16s %s .. %s\n", "x:", xLabels[0], xLabels[len(xLabels)-1])
	}
	for _, name := range order {
		vals, ok := series[name]
		if !ok {
			continue
		}
		first, last := 0, 0
		if len(vals) > 0 {
			first, last = vals[0], vals[len(vals)-1]
		}
		fmt.Fprintf(w, "%-16s %s  %d → %d\n", name, Sparkline(vals), first, last)
	}
}

// Downsample reduces values to at most buckets entries by averaging runs;
// used to fit 500-interval distributions into a terminal row.
func Downsample(values []int, buckets int) []int {
	if buckets <= 0 || len(values) <= buckets {
		return append([]int(nil), values...)
	}
	out := make([]int, buckets)
	for i := range out {
		lo := i * len(values) / buckets
		hi := (i + 1) * len(values) / buckets
		if hi == lo {
			hi = lo + 1
		}
		sum := 0
		for _, v := range values[lo:hi] {
			sum += v
		}
		out[i] = sum / (hi - lo)
	}
	return out
}
