package squid

import (
	"errors"
	"fmt"
	"time"

	"squid/internal/keyspace"
	"squid/internal/telemetry"
)

// QueryID identifies one flexible query across the system. It is
// telemetry.QueryID re-exported: the engine issues it, Result and every
// trace surface carry it, and the distinct type keeps query ids from being
// mixed up with span ids, tokens, or ring keys at compile time.
type QueryID = telemetry.QueryID

// ErrOverloaded is the sentinel behind admission-control rejections: the
// node's in-flight refinement cap is reached, so the query (or subtree) is
// shed instead of queued without bound. Shed subtrees are retried through
// the recovery path; shed root queries surface the error directly —
// match with errors.Is and back off. The concrete error is *OverloadError,
// which carries a retry-after hint.
var ErrOverloaded = errors.New("squid: overloaded: refinement admission cap reached")

// OverloadError is the concrete admission-control rejection. It unwraps to
// ErrOverloaded; RetryAfter is the shedding node's backoff hint, derived
// from its queue depth.
type OverloadError struct {
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("%v (retry after %v)", ErrOverloaded, e.RetryAfter)
}

func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// Option configures an Engine built by New.
type Option func(*Options)

// New creates an engine over the given keyword space, configured by
// functional options. Attach it to its node before use:
//
//	eng := squid.New(space, squid.WithReplication(2), squid.WithQueryDeadline(time.Minute))
//	node := chord.NewNode(chordCfg, id, eng)
//	eng.Attach(node)
func New(space *keyspace.Space, opts ...Option) *Engine {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	return newEngine(space, o)
}

// FromOptions applies a whole Options struct as one option — the bridge
// for callers that assemble configuration programmatically (the simulator's
// Config.Engine) before handing it to New.
func FromOptions(o Options) Option {
	return func(dst *Options) { *dst = o }
}

// WithReplication keeps n successor copies of every stored item.
// See Options.Replicas.
func WithReplication(n int) Option {
	return func(o *Options) { o.Replicas = n }
}

// WithQueryDeadline bounds every query rooted at this engine.
// See Options.QueryDeadline.
func WithQueryDeadline(d time.Duration) Option {
	return func(o *Options) { o.QueryDeadline = d }
}

// WithSubtreeTimeout arms the per-child recovery deadline.
// See Options.SubtreeTimeout.
func WithSubtreeTimeout(d time.Duration) Option {
	return func(o *Options) { o.SubtreeTimeout = d }
}

// WithWorkers sets the query scheduler's pool size; a negative n disables
// the pool and refines inline on the delivery goroutine. See
// Options.Workers.
func WithWorkers(n int) Option {
	return func(o *Options) { o.Workers = n }
}

// WithMaxInflight caps admitted-but-unfinished refinement jobs; beyond it
// the engine sheds with ErrOverloaded. See Options.MaxInflight.
func WithMaxInflight(n int) Option {
	return func(o *Options) { o.MaxInflight = n }
}

// WithProbeCache caches owner-probe results at the query root.
// See Options.ProbeCacheSize.
func WithProbeCache(size int) Option {
	return func(o *Options) { o.ProbeCacheSize = size }
}

// WithResultCache bounds the popular-cluster result cache: completed leaf
// subtrees are remembered by (query, cluster set) and repeat queries answer
// from the cache until a covered key mutates. See Options.ResultCacheSize.
func WithResultCache(size int) Option {
	return func(o *Options) { o.ResultCacheSize = size }
}

// WithSink feeds per-query processing metrics to sink.
// See Options.Sink.
func WithSink(sink MetricsSink) Option {
	return func(o *Options) { o.Sink = sink }
}

// WithTelemetry shares a metrics registry with the engine.
// See Options.Telemetry.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(o *Options) { o.Telemetry = reg }
}

// WithTraces enables query tracing at this node.
// See Options.Traces.
func WithTraces(store *telemetry.TraceStore) Option {
	return func(o *Options) { o.Traces = store }
}
