package keyspace

import (
	"cmp"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"squid/internal/sfc"
)

func TestParseQuery(t *testing.T) {
	cases := []struct {
		in   string
		want Query
	}{
		{"(computer, network)", Query{Exact("computer"), Exact("network")}},
		{"computer, network", Query{Exact("computer"), Exact("network")}},
		{"(comp*, net*)", Query{Prefix("comp"), Prefix("net")}},
		{"(computer, *)", Query{Exact("computer"), Wildcard()}},
		{"(comp*, *, *)", Query{Prefix("comp"), Wildcard(), Wildcard()}},
		{"(256-512, *, 10-*)", Query{Range("256", "512"), Wildcard(), Range("10", "")}},
		{"(*-100)", Query{Range("", "100")}},
		{"(*-*)", Query{Wildcard()}},
		{"( a ,  b )", Query{Exact("a"), Exact("b")}},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("Parse(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Parse(%q)[%d] = %+v, want %+v", c.in, i, got[i], c.want[i])
			}
		}
	}
	for _, bad := range []string{"", "()", "a,,b", "(a*b*, c)", "(unbalanced", "a, b)"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q): expected error", bad)
		}
	}
}

func TestQueryString(t *testing.T) {
	q := Query{Exact("computer"), Prefix("net"), Wildcard(), Range("10", ""), Range("", "5"), Range("1", "9")}
	if got := q.String(); got != "(computer, net*, *, 10-*, *-5, 1-9)" {
		t.Errorf("String = %q", got)
	}
}

func TestQueryIsExact(t *testing.T) {
	if !(Query{Exact("a"), Exact("b")}).IsExact() {
		t.Error("all-exact query should be exact")
	}
	if (Query{Exact("a"), Wildcard()}).IsExact() {
		t.Error("wildcard query should not be exact")
	}
	if (Query{}).IsExact() {
		t.Error("empty query should not be exact")
	}
}

func TestWordDimOrderPreserving(t *testing.T) {
	d := MustWordDim("kw", 32)
	words := []string{"", "a", "aa", "ab", "b", "ba", "comp", "compa", "computation", "computer", "z", "z9", "0", "42"}
	// Encoding must preserve the base-37 lexicographic order (letters before
	// digits, shorter before extensions).
	var prev uint64
	for i, w := range words {
		c, err := d.Encode(w)
		if err != nil {
			t.Fatalf("Encode(%q): %v", w, err)
		}
		if i > 0 && c < prev {
			t.Errorf("order violated: Encode(%q)=%d < Encode(%q)=%d", w, c, words[i-1], prev)
		}
		prev = c
	}
}

func TestWordDimTruncation(t *testing.T) {
	d := MustWordDim("kw", 32)
	if d.Slots() != 6 {
		t.Fatalf("32-bit axis should discriminate 6 chars, got %d", d.Slots())
	}
	a, _ := d.Encode("computation")
	b, _ := d.Encode("computer")
	if a != b {
		t.Errorf("words sharing their first 6 chars should share a coordinate: %d vs %d", a, b)
	}
	c, _ := d.Encode("comput")
	if a != c {
		t.Errorf("truncation should equal the 6-char word: %d vs %d", a, c)
	}
}

func TestWordDimPrefixInterval(t *testing.T) {
	d := MustWordDim("kw", 32)
	iv, err := d.Interval(Prefix("comp"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"comp", "compa", "computer", "computation", "comp99"} {
		c, _ := d.Encode(w)
		if !iv.Contains(c) {
			t.Errorf("prefix interval %v should contain Encode(%q)=%d", iv, w, c)
		}
	}
	for _, w := range []string{"com", "comq", "con", "b", "d"} {
		c, _ := d.Encode(w)
		if iv.Contains(c) {
			t.Errorf("prefix interval %v should not contain Encode(%q)=%d", iv, w, c)
		}
	}
}

func TestWordDimRangeInterval(t *testing.T) {
	d := MustWordDim("kw", 32)
	iv, err := d.Interval(Range("cat", "dog"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"cat", "cow", "dig", "dog", "dogs"} {
		c, _ := d.Encode(w)
		if !iv.Contains(c) {
			t.Errorf("[cat,dog] should contain %q", w)
		}
	}
	for _, w := range []string{"car", "doh", "e", "a"} {
		c, _ := d.Encode(w)
		if iv.Contains(c) {
			t.Errorf("[cat,dog] should not contain %q", w)
		}
	}
	// Open ends.
	from, _ := d.Interval(Range("m", ""))
	if from.Hi != (uint64(1)<<32)-1 {
		t.Errorf("open upper end should reach axis max, got %v", from)
	}
	to, _ := d.Interval(Range("", "m"))
	if to.Lo != 0 {
		t.Errorf("open lower end should reach 0, got %v", to)
	}
}

func TestWordDimMatches(t *testing.T) {
	d := MustWordDim("kw", 32)
	cases := []struct {
		t    Term
		v    string
		want bool
	}{
		{Wildcard(), "anything", true},
		{Wildcard(), "", true},
		{Exact("computer"), "computer", true},
		{Exact("computer"), "Computer", true},
		{Exact("computer"), "computation", false},
		{Prefix("comp"), "computer", true},
		{Prefix("comp"), "company", true},
		{Prefix("comp"), "con", false},
		{Prefix("comp"), "", false},
		{Range("cat", "dog"), "cow", true},
		{Range("cat", "dog"), "cat", true},
		{Range("cat", "dog"), "dog", true},
		{Range("cat", "dog"), "car", false},
		{Range("cat", "dog"), "elephant", false},
		{Range("m", ""), "zebra", true},
		{Range("m", ""), "apple", false},
		{Range("", "m"), "apple", true},
		{Range("", "m"), "zebra", false},
	}
	for _, c := range cases {
		if got := d.Matches(c.t, c.v); got != c.want {
			t.Errorf("Matches(%v, %q) = %v, want %v", c.t, c.v, got, c.want)
		}
	}
}

func TestWordDimErrors(t *testing.T) {
	if _, err := NewWordDim("x", 0); err == nil {
		t.Error("0-bit dim should fail")
	}
	if _, err := NewWordDim("x", 64); err == nil {
		t.Error("64-bit dim should fail")
	}
	d := MustWordDim("kw", 21)
	if d.Slots() != 4 {
		t.Errorf("21-bit axis slots = %d, want 4", d.Slots())
	}
	if _, err := d.Encode("héllo"); err == nil {
		t.Error("non-ascii should fail to encode")
	}
	if _, err := d.Interval(Prefix("a_b")); err == nil {
		t.Error("bad prefix chars should fail")
	}
}

func TestNumericDim(t *testing.T) {
	d := MustNumericDim("memory", 21, 0, 1024)
	lo, err := d.Encode("0")
	if err != nil || lo != 0 {
		t.Errorf("Encode(0) = %d, %v", lo, err)
	}
	hi, _ := d.Encode("1024")
	if hi != (uint64(1)<<21)-1 {
		t.Errorf("Encode(max) = %d", hi)
	}
	mid, _ := d.Encode("512")
	if mid == 0 || mid == hi {
		t.Errorf("Encode(512) = %d should be interior", mid)
	}
	under, _ := d.Encode("-5")
	over, _ := d.Encode("99999")
	if under != 0 || over != hi {
		t.Errorf("out-of-bounds should clamp: %d, %d", under, over)
	}
	if _, err := d.Encode("abc"); err == nil {
		t.Error("non-numeric should fail")
	}

	iv, err := d.Interval(Range("256", "512"))
	if err != nil {
		t.Fatal(err)
	}
	c300, _ := d.Encode("300")
	if !iv.Contains(c300) {
		t.Error("range interval should contain 300")
	}
	c100, _ := d.Encode("100")
	if iv.Contains(c100) {
		t.Error("range interval should not contain 100")
	}

	if !d.Matches(Range("256", "512"), "300") || d.Matches(Range("256", "512"), "100") {
		t.Error("range Matches wrong")
	}
	if !d.Matches(Range("256", ""), "999999") {
		t.Error("open range should match")
	}
	if !d.Matches(Exact("512"), "512.0") || d.Matches(Exact("512"), "513") {
		t.Error("exact Matches wrong")
	}
	if d.Matches(Range("1", "2"), "junk") {
		t.Error("non-numeric value should not match")
	}
	if _, err := d.Interval(Prefix("12")); err == nil {
		t.Error("prefix on numeric dim should fail")
	}
	if _, err := d.Interval(Range("512", "256")); err == nil {
		t.Error("empty numeric range should fail")
	}
}

func TestNumericDimErrors(t *testing.T) {
	if _, err := NewNumericDim("x", 21, 5, 5); err == nil {
		t.Error("min == max should fail")
	}
	if _, err := NewNumericDim("x", 21, 9, 5); err == nil {
		t.Error("min > max should fail")
	}
	if _, err := NewNumericDim("x", 0, 0, 1); err == nil {
		t.Error("0 bits should fail")
	}
}

func newTestSpace(t *testing.T) *Space {
	t.Helper()
	s, err := NewWordSpace(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpaceIndexAndRegion(t *testing.T) {
	s := newTestSpace(t)
	idx, err := s.Index([]string{"computer", "network"})
	if err != nil {
		t.Fatal(err)
	}
	// The element's index must be covered by any query it matches.
	for _, qs := range []string{
		"(computer, network)", "(comp*, net*)", "(computer, *)", "(*, network)", "(*, *)",
		"(c-d, *)", "(comp*, *)",
	} {
		q := MustParse(qs)
		region, err := s.Region(q)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		clusters := sfc.Clusters(s.Curve(), region)
		covered := false
		for _, iv := range clusters {
			if iv.Contains(idx) {
				covered = true
				break
			}
		}
		if !covered {
			t.Errorf("query %s should cover the element's index", qs)
		}
		if !s.Matches(q, []string{"computer", "network"}) {
			t.Errorf("query %s should match the element", qs)
		}
	}
	for _, qs := range []string{"(data, *)", "(*, x*)", "(computer, networks)"} {
		q := MustParse(qs)
		if s.Matches(q, []string{"computer", "network"}) {
			t.Errorf("query %s should not match", qs)
		}
	}
}

func TestSpacePadding(t *testing.T) {
	s := newTestSpace(t)
	// Short queries pad with wildcards; short value tuples pad with "".
	q := MustParse("(computer)")
	region, err := s.Region(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(region) != 2 {
		t.Fatalf("region dims = %d", len(region))
	}
	if !s.Matches(q, []string{"computer"}) {
		t.Error("padded query should match padded values")
	}
	if !s.Matches(q, []string{"computer", "anything"}) {
		t.Error("wildcard pad should match any second value")
	}
	if _, err := s.Region(MustParse("(a, b, c)")); err == nil {
		t.Error("over-long query should fail")
	}
	if _, err := s.Point([]string{"a", "b", "c"}); err == nil {
		t.Error("over-long tuple should fail")
	}
	if s.Matches(MustParse("(a, b, c)"), []string{"a", "b"}) {
		t.Error("over-long query should not match")
	}
}

// TestRegionMatchesNewRegion pins Space.Region to the normalizing
// reference: for every parseable corpus query plus an inverted range, it
// equals sfc.NewRegion over the raw per-dimension intervals, and it
// allocates at most twice. TestBoxRegionMatchesNewRegion in sfc holds the
// clipping of the shared backing array.
func TestRegionMatchesNewRegion(t *testing.T) {
	s, err := NewWordSpace(3, 21)
	if err != nil {
		t.Fatal(err)
	}
	queries := []Query{
		{Range("zebra", "apple"), Wildcard()},
		{Prefix("comp"), Range("z", "a"), Exact("grid")},
	}
	for _, in := range parseCorpus {
		if q, err := Parse(in); err == nil {
			queries = append(queries, q)
		}
	}
	for _, q := range queries {
		got, err := s.Region(q)
		if len(q) > s.Dims() {
			if err == nil {
				t.Errorf("Region(%s): over-long query accepted", q)
			}
			continue
		}
		raw := make([][]sfc.Interval, s.Dims())
		var refErr error
		for i := range raw {
			term := Wildcard()
			if i < len(q) {
				term = q[i]
			}
			iv, err := s.Dimension(i).Interval(term)
			refErr = cmp.Or(refErr, err)
			raw[i] = []sfc.Interval{iv}
		}
		if (err != nil) != (refErr != nil) {
			t.Fatalf("Region(%s) error %v, per-dimension intervals error %v", q, err, refErr)
		}
		if err != nil {
			continue
		}
		if want := sfc.NewRegion(raw); !reflect.DeepEqual(got, want) {
			t.Errorf("Region(%s) = %v, NewRegion = %v", q, got, want)
		}
	}

	q := MustParse("(comp*, net*, *)")
	if n := testing.AllocsPerRun(100, func() { _, _ = s.Region(q) }); n > 2 {
		t.Errorf("Region: %.1f allocs per call, want at most 2", n)
	}
}

// TestRegionIntoMatchesRegion pins RegionInto to Region on generated
// queries — every term kind, wildcard padding, over-long queries and
// unencodable words — through one buffer reused across all of them, errors
// included, and pins a reused buffer at zero allocations.
func TestRegionIntoMatchesRegion(t *testing.T) {
	s, err := NewWordSpace(3, 21)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	word := func() string {
		if rng.Intn(20) == 0 {
			return "bad!" + randomWord(rng) // unsupported character
		}
		return randomWord(rng)
	}
	term := func() Term {
		switch rng.Intn(4) {
		case 0:
			return Exact(word())
		case 1:
			return Prefix(word()[:1])
		case 2:
			return Range(word(), word())
		}
		return Wildcard()
	}
	var buf RegionBuf
	var errs, oks int
	for range 2000 {
		q := make(Query, rng.Intn(s.Dims()+2))
		for i := range q {
			q[i] = term()
		}
		want, wantErr := s.Region(q)
		got, err := s.RegionInto(q, &buf)
		if (err != nil) != (wantErr != nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("RegionInto(%s) error %v, Region error %v", q, err, wantErr)
		}
		if err != nil {
			errs++
			continue
		}
		oks++
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("RegionInto(%s) = %v, Region = %v", q, got, want)
		}
	}
	if errs == 0 || oks == 0 {
		t.Fatalf("generator produced %d errors and %d regions, want both", errs, oks)
	}

	q := MustParse("(comp*, net*, *)")
	if n := testing.AllocsPerRun(100, func() { _, _ = s.RegionInto(q, &buf) }); n != 0 {
		t.Errorf("RegionInto: %.1f allocs per call with a reused buffer, want 0", n)
	}
}

func TestSpaceValidation(t *testing.T) {
	curve := sfc.MustHilbert(2, 16)
	w16 := MustWordDim("a", 16)
	w8 := MustWordDim("b", 8)
	if _, err := New(curve, w16); err == nil {
		t.Error("dimension count mismatch should fail")
	}
	if _, err := New(curve, w16, w8); err == nil {
		t.Error("bit width mismatch should fail")
	}
	if _, err := New(curve, w16, w16); err != nil {
		t.Errorf("valid space: %v", err)
	}
}

// randomWord draws a word over [a-z] with geometric-ish length.
func randomWord(rng *rand.Rand) string {
	n := 1 + rng.Intn(8)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte(byte('a' + rng.Intn(26)))
	}
	return b.String()
}

// TestSoundnessProperty is the load-bearing invariant of the whole system:
// for random elements and random queries, Matches(q, values) implies the
// element's curve index lies inside the query's region. (This is what makes
// "all existing data elements that match a query are found" true end to
// end.)
func TestSoundnessProperty(t *testing.T) {
	s, err := NewWordSpace(2, 12)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	randomTerm := func() Term {
		switch rng.Intn(4) {
		case 0:
			return Wildcard()
		case 1:
			return Exact(randomWord(rng))
		case 2:
			w := randomWord(rng)
			return Prefix(w[:1+rng.Intn(len(w))])
		default:
			a, b := randomWord(rng), randomWord(rng)
			return Range(a, b) // possibly empty range; fine
		}
	}
	for trial := 0; trial < 3000; trial++ {
		values := []string{randomWord(rng), randomWord(rng)}
		q := Query{randomTerm(), randomTerm()}
		if !s.Matches(q, values) {
			continue
		}
		region, err := s.Region(q)
		if err != nil {
			t.Fatalf("Region(%s): %v", q, err)
		}
		pt, err := s.Point(values)
		if err != nil {
			t.Fatal(err)
		}
		if !region.ContainsPoint(pt) {
			t.Fatalf("trial %d: %s matches %v but point %v outside region %v",
				trial, q, values, pt, region)
		}
	}
}

func TestMixedSpaceGridResources(t *testing.T) {
	// The paper's grid example: (memory, cpu frequency, bandwidth) with
	// range queries like (256-512 MB, *, 10Mbps-*).
	curve := sfc.MustHilbert(3, 21)
	s := MustNew(curve,
		MustNumericDim("memory", 21, 0, 4096),
		MustNumericDim("cpu", 21, 0, 4000),
		MustNumericDim("bandwidth", 21, 0, 1000),
	)
	idx, err := s.Index([]string{"384", "2400", "100"})
	if err != nil {
		t.Fatal(err)
	}
	q := MustParse("(256-512, *, 10-*)")
	region, err := s.Region(q)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Matches(q, []string{"384", "2400", "100"}) {
		t.Error("resource should match")
	}
	pt := make([]uint64, 3)
	curve.Decode(idx, pt)
	if !region.ContainsPoint(pt) {
		t.Error("resource index outside query region")
	}
	if s.Matches(q, []string{"128", "2400", "100"}) {
		t.Error("128MB should not match 256-512")
	}
	if s.Matches(q, []string{"384", "2400", "5"}) {
		t.Error("5Mbps should not match 10-*")
	}
}

func TestNumericDimNegativeRange(t *testing.T) {
	// Attributes like temperature or price deltas span negative values.
	d := MustNumericDim("delta", 21, -1000, 1000)
	lo, _ := d.Encode("-1000")
	mid, _ := d.Encode("0")
	hi, _ := d.Encode("1000")
	if !(lo < mid && mid < hi) {
		t.Fatalf("ordering broken: %d %d %d", lo, mid, hi)
	}
	iv, err := d.Interval(Range("-500", "500"))
	if err != nil {
		t.Fatal(err)
	}
	cNeg, _ := d.Encode("-250")
	cPos, _ := d.Encode("250")
	cOut, _ := d.Encode("-750")
	if !iv.Contains(cNeg) || !iv.Contains(cPos) || iv.Contains(cOut) {
		t.Errorf("negative range interval wrong: %v", iv)
	}
	if !d.Matches(Range("-500", "500"), "-250") || d.Matches(Range("-500", "500"), "-750") {
		t.Error("negative range Matches wrong")
	}
}

func TestWordDimValueHighEdges(t *testing.T) {
	d := MustWordDim("kw", 63)
	if d.Slots() != 12 {
		t.Errorf("63-bit axis slots = %d, want 12", d.Slots())
	}
	// A full-'z' prefix interval must still be ordered and non-empty.
	iv, err := d.Interval(Prefix("zzzzzzzzzzzz"))
	if err != nil {
		t.Fatal(err)
	}
	if iv.Lo > iv.Hi {
		t.Errorf("inverted interval %v", iv)
	}
	c, _ := d.Encode("zzzzzzzzzzzzzz") // longer than slots
	if !iv.Contains(c) {
		t.Error("overlong z-word outside its truncation's prefix interval")
	}
}

// TestIndexAllocFree pins Index at zero allocations on the Hilbert and
// Morton curves: publish, unpublish and the resumed-stream filters index
// every element they touch.
func TestIndexAllocFree(t *testing.T) {
	dims := make([]Dimension, 3)
	for i := range dims {
		d, err := NewWordDim("w", 16)
		if err != nil {
			t.Fatal(err)
		}
		dims[i] = d
	}
	values := []string{"computer", "network", "grid"}
	for _, curve := range []sfc.Curve{sfc.MustHilbert(3, 16), sfc.MustMorton(3, 16)} {
		s := MustNew(curve, dims...)
		pt, err := s.Point(values)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := s.Index(values)
		if err != nil || idx != curve.Encode(pt) {
			t.Fatalf("%T: Index = %d, %v; want %d", curve, idx, err, curve.Encode(pt))
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = s.Index(values) }); n != 0 {
			t.Errorf("%T: Index %.1f allocs per call, want 0", curve, n)
		}
	}
}
