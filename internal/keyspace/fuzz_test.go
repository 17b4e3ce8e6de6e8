package keyspace

import (
	"testing"

	"squid/internal/sfc"
)

// parseCorpus seeds FuzzParse; TestRegionMatchesNewRegion reuses it as a
// query corpus.
var parseCorpus = []string{
	"(computer, network)", "(comp*, *)", "(256-512, *, 10-*)", "(*-*)",
	"a,b", "()", "(,)", "(a**, b)", "(-)", "(--)", "(*, *, *, *, *)",
	"(a-b-c)", "  ( x , y )  ", "(*)",
}

// FuzzParse ensures the query parser never panics and that parsed queries
// either round-trip through String->Parse or fail cleanly.
func FuzzParse(f *testing.F) {
	for _, seed := range parseCorpus {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		q, err := Parse(input)
		if err != nil {
			return
		}
		// A successfully parsed query must re-parse from its rendering to
		// the same structure.
		again, err := Parse(q.String())
		if err != nil {
			t.Fatalf("re-parse of %q (from %q) failed: %v", q.String(), input, err)
		}
		if len(again) != len(q) {
			t.Fatalf("re-parse changed arity: %v vs %v", again, q)
		}
		for i := range q {
			if again[i].Kind != q[i].Kind {
				t.Fatalf("term %d kind changed: %v vs %v", i, again[i], q[i])
			}
		}
	})
}

// FuzzWordDimConsistency ensures Interval/Matches agree for arbitrary
// inputs: if a value matches a term, its coordinate lies in the term's
// interval (soundness of the region over-approximation).
func FuzzWordDimConsistency(f *testing.F) {
	f.Add("computer", "comp")
	f.Add("a", "b")
	f.Add("zz9", "z")
	f.Add("", "x")
	f.Fuzz(func(t *testing.T, value, pat string) {
		d := MustWordDim("kw", 20)
		coord, err := d.Encode(value)
		if err != nil {
			return // unencodable values are rejected at publish time
		}
		for _, term := range []Term{Exact(pat), Prefix(pat), Range(pat, ""), Range("", pat)} {
			iv, err := d.Interval(term)
			if err != nil {
				continue
			}
			if d.Matches(term, value) && !iv.Contains(coord) {
				t.Fatalf("term %v matches %q but interval %v misses coord %d", term, value, iv, coord)
			}
		}
	})
}

// FuzzSpaceSoundness extends the soundness property to whole 2-D queries.
func FuzzSpaceSoundness(f *testing.F) {
	f.Add("computer", "network", "comp", "net")
	f.Add("a", "b", "", "")
	f.Add("x1", "y2", "x", "y2")
	f.Fuzz(func(t *testing.T, v1, v2, p1, p2 string) {
		s, err := NewWordSpace(2, 12)
		if err != nil {
			t.Fatal(err)
		}
		values := []string{v1, v2}
		pt, err := s.Point(values)
		if err != nil {
			return
		}
		for _, q := range []Query{
			{Exact(p1), Exact(p2)},
			{Prefix(p1), Wildcard()},
			{Range(p1, p2), Wildcard()},
		} {
			region, err := s.Region(q)
			if err != nil {
				continue
			}
			if s.Matches(q, values) && !region.ContainsPoint(pt) {
				t.Fatalf("query %s matches %v but region excludes its point", q, values)
			}
			_ = sfc.Clusters(s.Curve(), region) // must not panic
		}
	})
}
