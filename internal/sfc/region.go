package sfc

import (
	"fmt"
	"sort"
	"strings"
)

// Interval is an inclusive range [Lo, Hi] of coordinate values or curve
// indices. Lo <= Hi always holds for normalized intervals.
type Interval struct {
	Lo, Hi uint64
}

// Contains reports whether v lies within the interval.
func (iv Interval) Contains(v uint64) bool { return iv.Lo <= v && v <= iv.Hi }

// Overlaps reports whether the two intervals share at least one value.
func (iv Interval) Overlaps(o Interval) bool { return iv.Lo <= o.Hi && o.Lo <= iv.Hi }

// Covers reports whether o is entirely within iv.
func (iv Interval) Covers(o Interval) bool { return iv.Lo <= o.Lo && o.Hi <= iv.Hi }

// Count returns the number of values in the interval. A full 64-bit interval
// would overflow; callers in this module only count intervals of at most
// 2^63 values (index spaces are capped at dims*bits <= 64 and counting is
// used for diagnostics only).
func (iv Interval) Count() uint64 { return iv.Hi - iv.Lo + 1 }

// String renders the interval as "[lo,hi]".
func (iv Interval) String() string { return fmt.Sprintf("[%d,%d]", iv.Lo, iv.Hi) }

// IntervalSet is a union of intervals over one dimension. Normalized sets
// are sorted by Lo, non-overlapping and non-adjacent (gaps of >= 1 between
// consecutive intervals).
type IntervalSet []Interval

// NormalizeIntervals sorts and merges an arbitrary collection of intervals
// into a normalized IntervalSet. Intervals with Lo > Hi are dropped.
func NormalizeIntervals(ivs []Interval) IntervalSet {
	set := make(IntervalSet, 0, len(ivs))
	for _, iv := range ivs {
		if iv.Lo <= iv.Hi {
			set = append(set, iv)
		}
	}
	sort.Slice(set, func(i, j int) bool { return set[i].Lo < set[j].Lo })
	out := set[:0]
	for _, iv := range set {
		if n := len(out); n > 0 && iv.Lo <= saturatingInc(out[n-1].Hi) {
			if iv.Hi > out[n-1].Hi {
				out[n-1].Hi = iv.Hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

func saturatingInc(v uint64) uint64 {
	if v == ^uint64(0) {
		return v
	}
	return v + 1
}

// Overlaps reports whether any interval in the set overlaps iv.
// The set must be normalized.
func (s IntervalSet) Overlaps(iv Interval) bool {
	// First interval whose Hi >= iv.Lo is the only candidate.
	//lint:allow-allocfree non-escaping closure; sort.Search does not retain it
	i := sort.Search(len(s), func(i int) bool { return s[i].Hi >= iv.Lo })
	return i < len(s) && s[i].Lo <= iv.Hi
}

// Covers reports whether iv is entirely within a single interval of the set.
// For a normalized set this is equivalent to the set covering iv.
func (s IntervalSet) Covers(iv Interval) bool {
	//lint:allow-allocfree non-escaping closure; sort.Search does not retain it
	i := sort.Search(len(s), func(i int) bool { return s[i].Hi >= iv.Lo })
	return i < len(s) && s[i].Covers(iv)
}

// Contains reports whether v is in the set.
func (s IntervalSet) Contains(v uint64) bool {
	return s.Overlaps(Interval{v, v})
}

// Region is a subset of the cube [0,2^bits)^dims shaped as a product of
// per-dimension interval unions: a point belongs to the region iff every
// coordinate lies in its dimension's IntervalSet. This is exactly the shape
// of the paper's queries: each keyword, partial keyword, wildcard or range
// constrains one dimension independently.
type Region []IntervalSet

// NewRegion builds a normalized region from raw per-dimension intervals.
func NewRegion(dims [][]Interval) Region {
	r := make(Region, len(dims))
	for i, ivs := range dims {
		r[i] = NormalizeIntervals(ivs)
	}
	return r
}

// BoxRegion builds the region of one raw interval per dimension, equal to
// NewRegion with a single interval in each dimension: an inverted interval
// (Lo > Hi) is an empty set, any other is already normalized. It costs one
// allocation beyond ivs; see BoxRegionInto for the aliasing rules.
func BoxRegion(ivs []Interval) Region { return BoxRegionInto(nil, ivs) }

// BoxRegionInto is BoxRegion building the region in r's backing array,
// which it replaces only when it is nil or shorter than ivs: with a reused
// r and ivs it allocates nothing. ivs becomes the backing array of the
// sets — each a clipped view, so an append to one never writes into its
// neighbour — and must not be modified while the region is in use.
func BoxRegionInto(r Region, ivs []Interval) Region {
	if r == nil || cap(r) < len(ivs) {
		r = make(Region, len(ivs))
	}
	r = r[:len(ivs)]
	for i, iv := range ivs {
		if iv.Lo > iv.Hi {
			r[i] = ivs[i:i:i]
			continue
		}
		r[i] = ivs[i : i+1 : i+1]
	}
	return r
}

// FullRegion returns the region covering the whole cube of the given curve
// geometry (every dimension unconstrained).
func FullRegion(dims, bits int) Region {
	full := Interval{0, maxCoord(bits)}
	r := make(Region, dims)
	for i := range r {
		r[i] = IntervalSet{full}
	}
	return r
}

func maxCoord(bits int) uint64 {
	if bits >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << bits) - 1
}

// Empty reports whether the region contains no points (some dimension has an
// empty interval set).
func (r Region) Empty() bool {
	for _, s := range r {
		if len(s) == 0 {
			return true
		}
	}
	return len(r) == 0
}

// ContainsPoint reports whether the point lies in the region.
func (r Region) ContainsPoint(pt []uint64) bool {
	if len(pt) != len(r) {
		return false
	}
	for i, s := range r {
		if !s.Contains(pt[i]) {
			return false
		}
	}
	return true
}

// IsPoint reports whether the region is a single point, and returns it.
func (r Region) IsPoint() ([]uint64, bool) {
	pt := make([]uint64, len(r))
	for i, s := range r {
		if len(s) != 1 || s[0].Lo != s[0].Hi {
			return nil, false
		}
		pt[i] = s[0].Lo
	}
	return pt, true
}

// overlapsCube reports whether the region intersects the axis-aligned cube
// whose coordinates are cell[i]<<shift .. ((cell[i]+1)<<shift)-1.
func (r Region) overlapsCube(cell []uint64, shift uint) bool {
	for i, s := range r {
		lo := cell[i] << shift
		hi := lo | ((uint64(1) << shift) - 1)
		if !s.Overlaps(Interval{lo, hi}) {
			return false
		}
	}
	return true
}

// coversCube reports whether the cube (as in overlapsCube) lies entirely
// inside the region.
func (r Region) coversCube(cell []uint64, shift uint) bool {
	for i, s := range r {
		lo := cell[i] << shift
		hi := lo | ((uint64(1) << shift) - 1)
		if !s.Covers(Interval{lo, hi}) {
			return false
		}
	}
	return true
}

// String renders the region, one dimension per semicolon-separated group.
func (r Region) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, s := range r {
		if i > 0 {
			b.WriteString("; ")
		}
		for j, iv := range s {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(iv.String())
		}
	}
	b.WriteByte('}')
	return b.String()
}
