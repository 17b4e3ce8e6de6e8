package sfc

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNormalizeIntervals(t *testing.T) {
	cases := []struct {
		name string
		in   []Interval
		want IntervalSet
	}{
		{"empty", nil, IntervalSet{}},
		{"single", []Interval{{3, 7}}, IntervalSet{{3, 7}}},
		{"sorts", []Interval{{10, 12}, {1, 2}}, IntervalSet{{1, 2}, {10, 12}}},
		{"merges overlap", []Interval{{1, 5}, {4, 9}}, IntervalSet{{1, 9}}},
		{"merges adjacent", []Interval{{1, 4}, {5, 9}}, IntervalSet{{1, 9}}},
		{"keeps gap", []Interval{{1, 4}, {6, 9}}, IntervalSet{{1, 4}, {6, 9}}},
		{"drops inverted", []Interval{{5, 3}, {1, 2}}, IntervalSet{{1, 2}}},
		{"contained", []Interval{{1, 10}, {3, 4}}, IntervalSet{{1, 10}}},
		{"max uint64", []Interval{{^uint64(0), ^uint64(0)}, {0, 1}}, IntervalSet{{0, 1}, {^uint64(0), ^uint64(0)}}},
		{"adjacent at max", []Interval{{10, ^uint64(0)}, {5, 9}}, IntervalSet{{5, ^uint64(0)}}},
	}
	for _, c := range cases {
		got := NormalizeIntervals(c.in)
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: NormalizeIntervals(%v) = %v, want %v", c.name, c.in, got, c.want)
		}
	}
}

// TestNormalizeQuick checks the normalization invariants on random input:
// sorted, disjoint, non-adjacent, and membership-preserving.
func TestNormalizeQuick(t *testing.T) {
	f := func(raw []Interval) bool {
		// Shrink values into a small domain so collisions actually happen.
		in := make([]Interval, len(raw))
		for i, iv := range raw {
			in[i] = Interval{iv.Lo % 64, iv.Hi % 64}
		}
		set := NormalizeIntervals(in)
		for i := 1; i < len(set); i++ {
			if set[i].Lo <= set[i-1].Hi+1 {
				return false // overlapping or adjacent
			}
		}
		for v := uint64(0); v < 64; v++ {
			inRaw := false
			for _, iv := range in {
				if iv.Lo <= iv.Hi && iv.Contains(v) {
					inRaw = true
					break
				}
			}
			if set.Contains(v) != inRaw {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestIntervalSetQueries(t *testing.T) {
	s := NormalizeIntervals([]Interval{{10, 20}, {30, 40}, {60, 60}})
	for _, c := range []struct {
		iv       Interval
		overlaps bool
		covers   bool
	}{
		{Interval{0, 5}, false, false},
		{Interval{0, 10}, true, false},
		{Interval{12, 18}, true, true},
		{Interval{10, 20}, true, true},
		{Interval{18, 32}, true, false},
		{Interval{21, 29}, false, false},
		{Interval{60, 60}, true, true},
		{Interval{61, 100}, false, false},
		{Interval{0, 100}, true, false},
	} {
		if got := s.Overlaps(c.iv); got != c.overlaps {
			t.Errorf("Overlaps(%v) = %v, want %v", c.iv, got, c.overlaps)
		}
		if got := s.Covers(c.iv); got != c.covers {
			t.Errorf("Covers(%v) = %v, want %v", c.iv, got, c.covers)
		}
	}
	if !s.Contains(15) || s.Contains(25) || !s.Contains(60) {
		t.Error("Contains misclassified a point")
	}
}

func TestIntervalBasics(t *testing.T) {
	iv := Interval{5, 9}
	if !iv.Contains(5) || !iv.Contains(9) || iv.Contains(4) || iv.Contains(10) {
		t.Error("Contains wrong at boundaries")
	}
	if iv.Count() != 5 {
		t.Errorf("Count = %d, want 5", iv.Count())
	}
	if !iv.Overlaps(Interval{9, 20}) || iv.Overlaps(Interval{10, 20}) {
		t.Error("Overlaps wrong at boundaries")
	}
	if !iv.Covers(Interval{5, 9}) || iv.Covers(Interval{5, 10}) {
		t.Error("Covers wrong at boundaries")
	}
	if iv.String() != "[5,9]" {
		t.Errorf("String = %q", iv.String())
	}
}

func TestRegionBasics(t *testing.T) {
	r := NewRegion([][]Interval{
		{{2, 5}},
		{{0, 15}},
	})
	if r.Empty() {
		t.Fatal("region should not be empty")
	}
	if !r.ContainsPoint([]uint64{3, 7}) {
		t.Error("point (3,7) should be inside")
	}
	if r.ContainsPoint([]uint64{6, 7}) {
		t.Error("point (6,7) should be outside")
	}
	if r.ContainsPoint([]uint64{3}) {
		t.Error("dimension mismatch should be outside")
	}
	if _, ok := r.IsPoint(); ok {
		t.Error("region is not a point")
	}

	p := NewRegion([][]Interval{{{7, 7}}, {{9, 9}}})
	pt, ok := p.IsPoint()
	if !ok || pt[0] != 7 || pt[1] != 9 {
		t.Errorf("IsPoint = %v, %v", pt, ok)
	}

	empty := NewRegion([][]Interval{{{5, 2}}, {{0, 1}}})
	if !empty.Empty() {
		t.Error("region with an inverted interval should be empty")
	}
	if (Region{}).Empty() != true {
		t.Error("zero-dimension region should be empty")
	}
}

func TestFullRegion(t *testing.T) {
	r := FullRegion(3, 21)
	if len(r) != 3 {
		t.Fatalf("dims = %d", len(r))
	}
	want := Interval{0, 1<<21 - 1}
	for i, s := range r {
		if len(s) != 1 || s[0] != want {
			t.Errorf("dim %d = %v, want [%v]", i, s, want)
		}
	}
	r64 := FullRegion(1, 64)
	if r64[0][0].Hi != ^uint64(0) {
		t.Errorf("64-bit full region Hi = %d", r64[0][0].Hi)
	}
}

// TestBoxRegionMatchesNewRegion pins BoxRegion to the normalizing
// reference: with one interval per dimension, including inverted, point
// and full-width ones, it equals NewRegion, its sets share no spare
// capacity, and it allocates once.
func TestBoxRegionMatchesNewRegion(t *testing.T) {
	top := ^uint64(0)
	cases := [][]Interval{
		nil,
		{{3, 7}},
		{{5, 2}, {0, 1}},
		{{0, top}, {9, 9}, {top, top}},
		{{1, 0}, {top, 0}, {4, 4}},
	}
	rng := rand.New(rand.NewSource(1))
	for range 100 {
		ivs := make([]Interval, 1+rng.Intn(4))
		for i := range ivs {
			ivs[i] = Interval{rng.Uint64() % 16, rng.Uint64() % 16}
		}
		cases = append(cases, ivs)
	}
	for _, ivs := range cases {
		raw := make([][]Interval, len(ivs))
		for i, iv := range ivs {
			raw[i] = []Interval{iv}
		}
		want := NewRegion(raw)
		got := BoxRegion(append([]Interval(nil), ivs...))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("BoxRegion(%v) = %v, NewRegion = %v", ivs, got, want)
		}
		for i, set := range got {
			if cap(set) != len(set) {
				t.Errorf("BoxRegion(%v) dimension %d: cap %d > len %d, an append would write into the next dimension",
					ivs, i, cap(set), len(set))
			}
		}
	}

	ivs := []Interval{{0, 7}, {3, 3}, {2, 9}}
	if n := testing.AllocsPerRun(100, func() { _ = BoxRegion(ivs) }); n > 1 {
		t.Errorf("BoxRegion: %.1f allocs per call, want 1", n)
	}
}

func TestRegionCubeTests(t *testing.T) {
	// Region x in [4,11], y in [0,3] on an 8x8 (bits=3)... use bits=4 space.
	r := NewRegion([][]Interval{{{4, 11}}, {{0, 3}}})
	// Cube (1,0) at shift 2 covers x in [4,7], y in [0,3]: inside.
	if !r.overlapsCube([]uint64{1, 0}, 2) || !r.coversCube([]uint64{1, 0}, 2) {
		t.Error("cube (1,0)/2 should be covered")
	}
	// Cube (0,0) at shift 2 covers x in [0,3]: disjoint in x.
	if r.overlapsCube([]uint64{0, 0}, 2) {
		t.Error("cube (0,0)/2 should not overlap")
	}
	// Cube (2,0) at shift 2 covers x in [8,11] y in [0,3]: covered.
	if !r.coversCube([]uint64{2, 0}, 2) {
		t.Error("cube (2,0)/2 should be covered")
	}
	// Cube (0,0) at shift 3 covers x,y in [0,7]: overlaps but not covered.
	if !r.overlapsCube([]uint64{0, 0}, 3) || r.coversCube([]uint64{0, 0}, 3) {
		t.Error("cube (0,0)/3 should overlap but not be covered")
	}
}

func TestRegionString(t *testing.T) {
	r := NewRegion([][]Interval{{{1, 2}, {5, 6}}, {{0, 9}}})
	if got := r.String(); got != "{[1,2],[5,6]; [0,9]}" {
		t.Errorf("String = %q", got)
	}
}

// randomRegion builds a random region over a dims x bits cube; used by the
// cluster tests too.
func randomRegion(rng *rand.Rand, dims, bits int) Region {
	limit := uint64(1) << bits
	raw := make([][]Interval, dims)
	for d := 0; d < dims; d++ {
		n := 1 + rng.Intn(2)
		for i := 0; i < n; i++ {
			a := rng.Uint64() % limit
			b := rng.Uint64() % limit
			if a > b {
				a, b = b, a
			}
			raw[d] = append(raw[d], Interval{a, b})
		}
	}
	return NewRegion(raw)
}
