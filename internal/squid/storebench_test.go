package squid

import (
	"runtime"
	"testing"

	"squid/internal/chord"
	"squid/internal/sfc"
)

func benchKey(i int) uint64 { return uint64(i) * 2654435761 % (1 << 32) }

func benchStore(n int) *Store {
	s := NewStore(chord.Space{Bits: 32})
	for i := 0; i < n; i++ {
		s.Add(benchKey(i), Element{Data: "x"})
	}
	return s
}

// BenchmarkStoreAdd measures ordered insertion at a realistic per-node
// store size: a peer holds hundreds to a few thousand keys, so the store
// starts over every 2,048 inserts and the cost per insert stays that of a
// store of that size rather than growing with b.N.
func BenchmarkStoreAdd(b *testing.B) {
	const storeSize = 2048
	s := NewStore(chord.Space{Bits: 32})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%storeSize == 0 {
			s = NewStore(chord.Space{Bits: 32})
		}
		s.Add(benchKey(i), Element{Data: "x"})
	}
}

// BenchmarkStoreAddRemove measures one Add and the Remove of the same
// element on a store of 100k elements, the size of the whole corpus the
// benchmark's store probe holds in one store.
func BenchmarkStoreAddRemove(b *testing.B) {
	s := benchStore(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k, e := benchKey(i+100_000), Element{Data: "y"}
		s.Add(k, e)
		if !s.Remove(k, e) {
			b.Fatal("Remove missed the element just added")
		}
	}
}

// BenchmarkStoreScanSpan measures a 1% span scan over 100k keys.
func BenchmarkStoreScanSpan(b *testing.B) {
	s := benchStore(100_000)
	span := sfc.Interval{Lo: 1 << 24, Hi: 1<<24 + 1<<25}
	b.ReportAllocs()
	b.ResetTimer()
	count := 0
	for i := 0; i < b.N; i++ {
		s.ScanSpan(span, func(uint64, Element) { count++ })
	}
	_ = count
}

// BenchmarkStoreHandover measures arc extraction plus re-ingestion.
func BenchmarkStoreHandover(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := benchStore(10_000)
		b.StartTimer()
		items := s.HandoverOut(1<<30, 1<<31)
		other := NewStore(chord.Space{Bits: 32})
		other.AddBatch(items)
	}
}

// BenchmarkStoreSpace reports the live heap a store keeps per element
// after an AddBatch of 100k one-element items (B/elem). The items and
// their elements are allocated before the first reading, so only the
// store's own structure is counted.
func BenchmarkStoreSpace(b *testing.B) {
	const n = 100_000
	items := make([]chord.Item, n)
	for i := range items {
		items[i] = chord.Item{Key: chord.ID(benchKey(i)), Value: []Element{{Data: "x"}}}
	}
	var perElem float64
	for i := 0; i < b.N; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s := NewStore(chord.Space{Bits: 32})
		s.AddBatch(items)
		runtime.GC()
		runtime.ReadMemStats(&after)
		perElem = float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
		runtime.KeepAlive(s)
	}
	b.ReportMetric(perElem, "B/elem")
}
