package squid

import (
	"strconv"
	"testing"

	"squid/internal/sfc"
)

// TestResultCacheEvictsFIFO fills a cache of three past its size: the
// oldest entries go first, and every survivor still answers with its own
// matches, through evictions and through an invalidation that drops an
// entry from the middle.
func TestResultCacheEvictsFIFO(t *testing.T) {
	rc := newResultCache(3)
	put := func(i int) {
		lo := uint64(10 * i)
		rc.put(strconv.Itoa(i), []sfc.Interval{{Lo: lo, Hi: lo + 9}}, []Element{{Data: strconv.Itoa(i)}})
	}
	check := func(step string, live ...int) {
		t.Helper()
		if len(rc.entries) != len(live) || len(rc.byKey) != len(live) {
			t.Fatalf("%s: %d entries, %d indexed, want %d", step, len(rc.entries), len(rc.byKey), len(live))
		}
		for i, want := range live {
			if e := rc.entries[i]; e.key != strconv.Itoa(want) {
				t.Errorf("%s: entry %d is %q, want %d (oldest first)", step, i, e.key, want)
			}
		}
		for k := 0; k < 8; k++ {
			m, ok := rc.get(strconv.Itoa(k))
			cached := false
			for _, want := range live {
				cached = cached || want == k
			}
			if ok != cached || ok && (len(m) != 1 || m[0].Data != strconv.Itoa(k)) {
				t.Errorf("%s: get(%d) = %v, %v; cached %v", step, k, m, ok, cached)
			}
		}
	}
	for i := 0; i < 5; i++ {
		put(i)
	}
	check("five put", 2, 3, 4)
	rc.invalidate(35)
	check("entry 3 invalidated", 2, 4)
	put(5)
	check("one more put", 2, 4, 5)
	put(6)
	put(7)
	check("two more puts", 5, 6, 7)
}
