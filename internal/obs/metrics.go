package obs

// Process-wide metrics: monotonic counters and latency histograms for the
// engine as a whole, complementing the per-evaluation EvalStats. The
// registry is cheap enough to update unconditionally (one atomic add per
// counter) and is exported two ways: MetricsSnapshot() for programmatic
// consumers and expvar (under the key "lopsided_engine") for anything that
// already scrapes /debug/vars.

import (
	"expvar"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// histBuckets is the number of power-of-two latency buckets. Bucket i
// counts observations with ceil(log2(us)) == i, i.e. bucket upper bounds of
// 1us, 2us, 4us … ~8.6s; slower observations land in the overflow bucket.
const histBuckets = 24

// Histogram is a fixed-bucket power-of-two latency histogram, safe for
// concurrent observation.
type Histogram struct {
	counts [histBuckets + 1]atomic.Int64
	sum    atomic.Int64 // nanoseconds
	count  atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	us := uint64(d / time.Microsecond)
	idx := bits.Len64(us) // 0 for <1us, 1 for 1us, … monotone in d
	if idx > histBuckets {
		idx = histBuckets
	}
	h.counts[idx].Add(1)
	h.sum.Add(int64(d))
	h.count.Add(1)
}

// HistogramBucket is one bucket of a histogram snapshot: the inclusive
// upper bound and the count of observations at or under it that are above
// the previous bucket's bound.
type HistogramBucket struct {
	LE    time.Duration // upper bound; 0 on the overflow bucket
	Count int64
}

// HistogramSnapshot is a point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	Count   int64
	Sum     time.Duration
	Buckets []HistogramBucket // only buckets with nonzero counts
}

// Mean returns the average observed duration (0 when empty).
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Snapshot copies the histogram's current state. It is safe to call while
// observations continue; the result is approximately consistent.
func (h *Histogram) Snapshot() HistogramSnapshot {
	out := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   time.Duration(h.sum.Load()),
	}
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			continue
		}
		le := time.Duration(0)
		if i < histBuckets {
			le = time.Microsecond << uint(i) / 2
			if i == 0 {
				le = time.Microsecond
			}
		}
		out.Buckets = append(out.Buckets, HistogramBucket{LE: le, Count: n})
	}
	return out
}

// Registry is the process-wide metrics surface. All fields are safe for
// concurrent update.
type Registry struct {
	// Compilation.
	Compiles       atomic.Int64 // successful or failed parse→compile runs
	CompileErrors  atomic.Int64
	CompileLatency Histogram

	// Plan cache.
	PlanCacheHits      atomic.Int64
	PlanCacheMisses    atomic.Int64
	PlanCacheEvictions atomic.Int64

	// Evaluation.
	Evals       atomic.Int64
	EvalErrors  atomic.Int64 // all failed evaluations, limit hits included
	LimitHits   atomic.Int64 // evaluations stopped by a LOPS0001-0005 budget
	EvalLatency Histogram
	// ShapeChecksElided accumulates runtime checks skipped across all
	// evaluations because static shape inference proved them redundant.
	ShapeChecksElided atomic.Int64

	// Tracing.
	TraceEvents atomic.Int64 // live fn:trace hits delivered to hosts
}

// SharingStats reports the copy-on-write tree layer's process-wide traffic:
// lazy clones handed out, one-level materializations that broke sharing,
// nodes whose physical copy was deferred at clone time, and scratch-buffer
// pool hits/misses.
type SharingStats struct {
	CowClones        int64
	CowBreaks        int64
	CowDeferredNodes int64
	PoolHits         int64
	PoolMisses       int64
}

// IndexStats reports the access-path layer's process-wide traffic: index
// section builds and the wall time they took, probes served from an index,
// child steps proven empty by the path synopsis, and probes that fell back
// to a tree walk.
type IndexStats struct {
	Builds     int64
	BuildNanos int64
	Hits       int64
	Prunes     int64
	Fallbacks  int64
}

// StreamStats reports the streaming-parse layer's process-wide traffic:
// full reader parses, projection-pruned parses, input bytes scanned, and
// the projected parses' element retain/prune decisions.
type StreamStats struct {
	ReaderParses     int64
	ProjectedParses  int64
	BytesScanned     int64
	ElementsRetained int64
	ElementsPruned   int64
}

// LayerStats is what the layer probe reports: the process-wide counters
// of the tree, index and streaming-parse layers. Those layers own their
// counters and cannot import this package, so the public engine package
// registers one probe that reads all three.
type LayerStats struct {
	Sharing SharingStats
	Index   IndexStats
	Stream  StreamStats
}

// layerProbe is read at snapshot time; nil until an engine package
// registers one via SetLayerProbe.
var layerProbe atomic.Pointer[func() LayerStats]

// SetLayerProbe registers the function Snapshot uses to fill Sharing,
// Index and Stream. Later registrations replace earlier ones.
func SetLayerProbe(fn func() LayerStats) {
	layerProbe.Store(&fn)
}

// Snapshot is a point-in-time copy of a Registry, the MetricsSnapshot()
// result type.
type Snapshot struct {
	Compiles, CompileErrors                            int64
	PlanCacheHits, PlanCacheMisses, PlanCacheEvictions int64
	Evals, EvalErrors, LimitHits                       int64
	TraceEvents                                        int64
	ShapeChecksElided                                  int64
	// Sharing, Index and Stream hold the copy-on-write/pool, structural/
	// value index and streaming-parse counters from the registered layer
	// probe (zero when no probe is registered).
	Sharing                     SharingStats
	Index                       IndexStats
	Stream                      StreamStats
	CompileLatency, EvalLatency HistogramSnapshot
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	var layers LayerStats
	if fn := layerProbe.Load(); fn != nil {
		layers = (*fn)()
	}
	return Snapshot{
		Sharing:            layers.Sharing,
		Index:              layers.Index,
		Stream:             layers.Stream,
		Compiles:           r.Compiles.Load(),
		CompileErrors:      r.CompileErrors.Load(),
		PlanCacheHits:      r.PlanCacheHits.Load(),
		PlanCacheMisses:    r.PlanCacheMisses.Load(),
		PlanCacheEvictions: r.PlanCacheEvictions.Load(),
		Evals:              r.Evals.Load(),
		EvalErrors:         r.EvalErrors.Load(),
		LimitHits:          r.LimitHits.Load(),
		TraceEvents:        r.TraceEvents.Load(),
		ShapeChecksElided:  r.ShapeChecksElided.Load(),
		CompileLatency:     r.CompileLatency.Snapshot(),
		EvalLatency:        r.EvalLatency.Snapshot(),
	}
}

// std is the default registry every engine entry point reports into.
var std = &Registry{}

// Default returns the process-wide registry.
func Default() *Registry { return std }

// MetricsSnapshot copies the process-wide registry: the programmatic twin
// of the expvar export.
func MetricsSnapshot() Snapshot { return std.Snapshot() }

var publishOnce sync.Once

// PublishExpvar exposes the default registry under the expvar key
// "lopsided_engine" (visible at /debug/vars on hosts serving the default
// mux). Idempotent; the public xq package calls it on first use.
func PublishExpvar() {
	publishOnce.Do(func() {
		expvar.Publish("lopsided_engine", expvar.Func(func() any {
			return MetricsSnapshot()
		}))
	})
}
