package workload

import (
	"fmt"
	"math/rand"

	"squid/internal/keyspace"
	"squid/internal/squid"
)

// KeyTuples draws n distinct keyword tuples of the given dimensionality
// with Zipf-weighted words ("keys" in the paper's terminology: unique
// keyword combinations).
func KeyTuples(v *Vocabulary, seed int64, n, dims int) [][]string {
	s := v.Sampler(seed)
	seen := make(map[string]bool, n)
	out := make([][]string, 0, n)
	for len(out) < n {
		tuple := make([]string, dims)
		for d := range tuple {
			tuple[d] = s.Word()
		}
		k := fmt.Sprint(tuple)
		if !seen[k] {
			seen[k] = true
			out = append(out, tuple)
		}
	}
	return out
}

// Elements wraps tuples as publishable data elements with synthetic
// payload names.
func Elements(tuples [][]string) []squid.Element {
	out := make([]squid.Element, len(tuples))
	for i, tu := range tuples {
		out[i] = squid.Element{Values: tu, Data: fmt.Sprintf("elem-%06d", i)}
	}
	return out
}

// Resource draws numeric grid-resource tuples (memory MB, cpu MHz,
// bandwidth Mbps), clustered around common hardware configurations like a
// real machine population (the sparse non-uniform distribution the paper
// assumes).
func Resources(seed int64, n int) [][]string {
	rng := rand.New(rand.NewSource(seed))
	mem := []float64{128, 256, 512, 1024, 2048, 4096}
	cpu := []float64{800, 1200, 1800, 2400, 3000, 3600}
	bw := []float64{10, 100, 1000}
	out := make([][]string, n)
	for i := range out {
		m := mem[rng.Intn(len(mem))] * (0.9 + 0.2*rng.Float64())
		c := cpu[rng.Intn(len(cpu))] * (0.95 + 0.1*rng.Float64())
		b := bw[rng.Intn(len(bw))]
		out[i] = []string{
			fmt.Sprintf("%.0f", m),
			fmt.Sprintf("%.0f", c),
			fmt.Sprintf("%.0f", b),
		}
	}
	return out
}

// QueryGen draws the paper's query classes against a vocabulary, biased
// toward popular words so queries actually hit data.
type QueryGen struct {
	s    *Sampler
	dims int
}

// NewQueryGen returns a generator for queries over a dims-dimensional word
// space.
func NewQueryGen(v *Vocabulary, seed int64, dims int) *QueryGen {
	return &QueryGen{s: v.Sampler(seed), dims: dims}
}

// prefixOf cuts a word to a query prefix of 3..len(w) characters.
func (g *QueryGen) prefixOf(w string) string {
	if len(w) <= 3 {
		return w
	}
	return w[:3+g.s.Rng().Intn(len(w)-2)]
}

// Q1 is the paper's first class: one keyword or partial keyword, the rest
// wildcards — e.g. (comp*, *) in 2D, (computer, *, *) in 3D.
func (g *QueryGen) Q1() keyspace.Query {
	q := make(keyspace.Query, g.dims)
	for i := range q {
		q[i] = keyspace.Wildcard()
	}
	w := g.s.Word()
	if g.s.Rng().Intn(2) == 0 {
		q[0] = keyspace.Exact(w)
	} else {
		q[0] = keyspace.Prefix(g.prefixOf(w))
	}
	return q
}

// Q2 is the second class: two to three keywords or partial keywords with
// at least one partial — e.g. (comp*, net*) in 2D, (computer, network, *)
// in 3D.
func (g *QueryGen) Q2() keyspace.Query {
	q := make(keyspace.Query, g.dims)
	for i := range q {
		q[i] = keyspace.Wildcard()
	}
	terms := 2
	if g.dims > 2 && g.s.Rng().Intn(2) == 0 {
		terms = 3
	}
	for i := 0; i < terms && i < g.dims; i++ {
		w := g.s.Word()
		if i == 0 {
			q[i] = keyspace.Prefix(g.prefixOf(w)) // guarantee >=1 partial
		} else if g.s.Rng().Intn(2) == 0 {
			q[i] = keyspace.Exact(w)
		} else {
			q[i] = keyspace.Prefix(g.prefixOf(w))
		}
	}
	return q
}

// Q3Keyword is the first range-query form of Section 4.1.3:
// (keyword, range, *).
func (g *QueryGen) Q3Keyword() keyspace.Query {
	q := make(keyspace.Query, g.dims)
	for i := range q {
		q[i] = keyspace.Wildcard()
	}
	q[0] = keyspace.Exact(g.s.Word())
	if g.dims > 1 {
		q[1] = g.wordRange()
	}
	return q
}

// Q3Ranges is the second form: a range on every dimension.
func (g *QueryGen) Q3Ranges() keyspace.Query {
	q := make(keyspace.Query, g.dims)
	for i := range q {
		q[i] = g.wordRange()
	}
	return q
}

// wordRange draws a lexicographic range around a popular word.
func (g *QueryGen) wordRange() keyspace.Term {
	a, b := g.s.Word(), g.s.Word()
	if a > b {
		a, b = b, a
	}
	return keyspace.Range(a, b)
}
