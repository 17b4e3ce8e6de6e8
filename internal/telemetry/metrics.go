package telemetry

import "sync/atomic"

// Counter is a monotonically increasing value. Inc/Add are one atomic op:
// no locks, no allocation.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
//
//lint:allocfree
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
//
//lint:allocfree
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value snapshots the current count. Safe from any goroutine.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down. All methods are one atomic op.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
//
//lint:allocfree
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add shifts the value by n (negative to decrease).
//
//lint:allocfree
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value snapshots the current value. Safe from any goroutine.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates int64 observations into fixed buckets chosen at
// registration. Observe is a short linear scan plus three atomic adds —
// no locks, no allocation. Bounds are inclusive upper limits; observations
// above the last bound land in an implicit +Inf bucket.
type Histogram struct {
	bounds []int64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    atomic.Int64
	total  atomic.Uint64
}

func newHistogram(bounds []int64) *Histogram {
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
//
//lint:allocfree
func (h *Histogram) Observe(v int64) {
	idx := len(h.bounds)
	for i, b := range h.bounds {
		if v <= b {
			idx = i
			break
		}
	}
	h.counts[idx].Add(1)
	h.sum.Add(v)
	h.total.Add(1)
}

// Count snapshots the number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum snapshots the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Buckets snapshots cumulative bucket counts aligned with Bounds, plus a
// final +Inf entry.
func (h *Histogram) Buckets() []uint64 {
	out := make([]uint64, len(h.counts))
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	return out
}

// Bounds returns the inclusive upper bounds the histogram was built with.
func (h *Histogram) Bounds() []int64 { return h.bounds }

// Counter registers (or finds) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.lookup(name, help, counterKind, nil, nil)
	return f.child(nil, func() any { return new(Counter) }).(*Counter)
}

// Gauge registers (or finds) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.lookup(name, help, gaugeKind, nil, nil)
	return f.child(nil, func() any { return new(Gauge) }).(*Gauge)
}

// Histogram registers (or finds) an unlabeled histogram with the given
// inclusive upper bounds (ascending).
func (r *Registry) Histogram(name, help string, bounds []int64) *Histogram {
	f := r.lookup(name, help, histogramKind, nil, bounds)
	return f.child(nil, func() any { return newHistogram(f.buckets) }).(*Histogram)
}

// CounterVec is a counter family partitioned by labels.
type CounterVec struct{ f *family }

// CounterVec registers (or finds) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.lookup(name, help, counterKind, labels, nil)}
}

// With returns the counter for one label-value set, creating it on first
// use. Resolve once and hold the pointer on hot paths.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values, func() any { return new(Counter) }).(*Counter)
}

// Sum totals the children whose label equals value, or every child when
// label is empty. A label the family does not carry sums to 0. Safe from
// any goroutine, including while children are being added.
func (v *CounterVec) Sum(label, value string) uint64 {
	f := v.f
	col := -1
	for i, l := range f.labels {
		if l == label {
			col = i
		}
	}
	if label != "" && col < 0 {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var total uint64
	for _, ch := range f.order {
		if col < 0 || ch.values[col] == value {
			total += ch.metric.(*Counter).Value()
		}
	}
	return total
}

// GaugeVec is a gauge family partitioned by labels.
type GaugeVec struct{ f *family }

// GaugeVec registers (or finds) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.lookup(name, help, gaugeKind, labels, nil)}
}

// With returns the gauge for one label-value set, creating it on first use.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.child(values, func() any { return new(Gauge) }).(*Gauge)
}

// HistogramVec is a histogram family partitioned by labels.
type HistogramVec struct{ f *family }

// HistogramVec registers (or finds) a labeled histogram family. All
// children share one bucket layout.
func (r *Registry) HistogramVec(name, help string, bounds []int64, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.lookup(name, help, histogramKind, labels, bounds)}
}

// With returns the histogram for one label-value set, creating it on first
// use.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.child(values, func() any { return newHistogram(v.f.buckets) }).(*Histogram)
}
