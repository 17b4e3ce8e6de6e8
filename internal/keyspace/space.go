package keyspace

import (
	"fmt"

	"squid/internal/sfc"
)

// Space is a d-dimensional keyword space tied to a space-filling curve: the
// "locality preserving mapping" of the paper's architecture (component 1 of
// Section 3). It is immutable and safe for concurrent use.
type Space struct {
	curve sfc.Curve
	dims  []Dimension
}

// New builds a Space from a curve and one Dimension per curve axis. Every
// dimension's Bits must equal the curve's Bits.
func New(curve sfc.Curve, dims ...Dimension) (*Space, error) {
	if len(dims) != curve.Dims() {
		return nil, fmt.Errorf("keyspace: curve has %d dims, got %d dimension codecs", curve.Dims(), len(dims))
	}
	for i, d := range dims {
		if d.Bits() != curve.Bits() {
			return nil, fmt.Errorf("keyspace: dimension %d (%s) is %d bits, curve axes are %d bits",
				i, d.Name(), d.Bits(), curve.Bits())
		}
	}
	s := &Space{curve: curve, dims: append([]Dimension(nil), dims...)}
	return s, nil
}

// MustNew is New that panics on error.
func MustNew(curve sfc.Curve, dims ...Dimension) *Space {
	s, err := New(curve, dims...)
	if err != nil {
		panic(err)
	}
	return s
}

// NewWordSpace returns the common storage-system configuration: d word
// dimensions over a Hilbert curve with the given bits per axis (paper
// Section 4.1 uses d = 2 and 3).
func NewWordSpace(d, bitsPerAxis int) (*Space, error) {
	curve, err := sfc.NewHilbert(d, bitsPerAxis)
	if err != nil {
		return nil, err
	}
	dims := make([]Dimension, d)
	for i := range dims {
		wd, err := NewWordDim(fmt.Sprintf("keyword%d", i), bitsPerAxis)
		if err != nil {
			return nil, err
		}
		dims[i] = wd
	}
	return New(curve, dims...)
}

// Curve returns the space-filling curve the space is built on.
func (s *Space) Curve() sfc.Curve { return s.curve }

// Dims returns the dimensionality.
func (s *Space) Dims() int { return len(s.dims) }

// Dimension returns the codec of axis i.
func (s *Space) Dimension(i int) Dimension { return s.dims[i] }

// IndexBits returns the number of significant bits in curve indices; the
// overlay's identifier space must be at least this wide.
func (s *Space) IndexBits() int { return s.curve.IndexBits() }

// Point encodes a data element's values (one per dimension) into cube
// coordinates. Missing trailing values encode as the empty string.
func (s *Space) Point(values []string) ([]uint64, error) {
	pt := make([]uint64, len(s.dims))
	if err := s.encodePoint(pt, values); err != nil {
		return nil, err
	}
	return pt, nil
}

// encodePoint fills pt (one slot per dimension) with values' coordinates.
func (s *Space) encodePoint(pt []uint64, values []string) error {
	if len(values) > len(s.dims) {
		return fmt.Errorf("keyspace: %d values for a %d-dimensional space", len(values), len(s.dims))
	}
	for i, d := range s.dims {
		v := ""
		if i < len(values) {
			v = values[i]
		}
		c, err := d.Encode(v)
		if err != nil {
			return err
		}
		pt[i] = c
	}
	return nil
}

// Index maps a data element's values to its curve index — the element's DHT
// key. On Hilbert and Morton spaces of up to 8 dimensions it allocates
// nothing: the point lives in a stack buffer, and the concrete curve is
// called directly so the buffer does not escape through the interface.
func (s *Space) Index(values []string) (uint64, error) {
	var buf [8]uint64
	if len(s.dims) > len(buf) {
		pt, err := s.Point(values)
		if err != nil {
			return 0, err
		}
		return s.curve.Encode(pt), nil
	}
	pt := buf[:len(s.dims)]
	if err := s.encodePoint(pt, values); err != nil {
		return 0, err
	}
	switch c := s.curve.(type) {
	case sfc.Hilbert:
		return c.Encode(pt), nil
	case sfc.Morton:
		return c.Encode(pt), nil
	}
	return s.curve.Encode(append([]uint64(nil), pt...)), nil
}

// Region translates a query into the coordinate region its matches occupy.
// Queries shorter than the dimensionality are padded with wildcards; longer
// queries are an error. It is RegionInto with a fresh buffer: two
// allocations, the intervals and the region's set headers.
func (s *Space) Region(q Query) (sfc.Region, error) { return s.RegionInto(q, new(RegionBuf)) }

// RegionBuf is the reusable backing of the regions RegionInto builds. A
// region built in a buffer is valid until the buffer's next use; a buffer
// must not be shared between goroutines.
type RegionBuf struct {
	ivs    []sfc.Interval
	region sfc.Region
}

// RegionInto is Region building the region in buf: a query has one term per
// dimension, so the region is an sfc.BoxRegion over one interval per
// dimension, and after the buffer's first use it allocates nothing.
func (s *Space) RegionInto(q Query, buf *RegionBuf) (sfc.Region, error) {
	if len(q) > len(s.dims) {
		return nil, fmt.Errorf("keyspace: query %s has %d terms for a %d-dimensional space", q, len(q), len(s.dims))
	}
	if cap(buf.ivs) < len(s.dims) {
		buf.ivs = make([]sfc.Interval, len(s.dims))
	}
	ivs := buf.ivs[:len(s.dims)]
	for i, d := range s.dims {
		t := Wildcard()
		if i < len(q) {
			t = q[i]
		}
		iv, err := d.Interval(t)
		if err != nil {
			return nil, err
		}
		ivs[i] = iv
	}
	buf.region = sfc.BoxRegionInto(buf.region, ivs)
	return buf.region, nil
}

// Matches applies the query exactly to a data element's values — the final
// filter run by data nodes so coordinate truncation never causes false
// positives. Values shorter than the query are treated as empty strings.
func (s *Space) Matches(q Query, values []string) bool {
	if len(q) > len(s.dims) {
		return false
	}
	for i, t := range q {
		v := ""
		if i < len(values) {
			v = values[i]
		}
		if !s.dims[i].Matches(t, v) {
			return false
		}
	}
	return true
}
