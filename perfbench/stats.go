package main

// stats.go holds the measurement plumbing shared by the workloads: latency
// samples and their quantiles, the failure ledger, the in-memory span
// recorder of the traced run, and the process-level counters (Go runtime
// allocations and GC cycles, peak resident memory).

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"lopsided/internal/obs"
	"lopsided/internal/xmltree"
	"lopsided/xq"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the method of Python's statistics.quantiles "inclusive").
// xs need not be sorted; an empty slice yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// throughputWindows is how many windows a run's throughput and peak
// memory are measured in; the reported value is the median window, so a
// burst of interference on the host moves one window, not the result.
const throughputWindows = 10

// chunkOf is the chunk size that splits n operations into
// throughputWindows chunks.
func chunkOf(n int) int { return n / throughputWindows }

// chunkedRate splits the operations, in completion order, into
// consecutive chunks of chunk operations and returns the median, over
// whole chunks, of each chunk's operations per second.
func chunkedRate(ends []time.Time, start time.Time, chunk int) float64 {
	if chunk < 1 {
		chunk = 1
	}
	s := append([]time.Time(nil), ends...)
	sort.Slice(s, func(a, b int) bool { return s[a].Before(s[b]) })
	var rates []float64
	prev := start
	for k := chunk - 1; k < len(s); k += chunk {
		rates = append(rates, float64(chunk)/s[k].Sub(prev).Seconds())
		prev = s[k]
	}
	return median(rates)
}

// chunkedQuantile splits the latencies, in completion order, into
// consecutive chunks of chunk values and returns the median, over whole
// chunks, of each chunk's q-quantile.
func chunkedQuantile(lat []float64, chunk int, q float64) float64 {
	if chunk < 1 {
		chunk = 1
	}
	var qs []float64
	for k := chunk; k <= len(lat); k += chunk {
		qs = append(qs, quantile(lat[k-chunk:k], q))
	}
	return median(qs)
}

// peakMonitor measures the process's peak resident memory per window: at
// each mark it reads the kernel's high-water mark (VmHWM) and resets it.
// Where the reset is not available it falls back to the whole-run peak.
type peakMonitor struct {
	mu    sync.Mutex
	peaks []float64
	ok    bool
	stop  chan struct{}
	done  chan struct{}
}

func newPeakMonitor() *peakMonitor {
	p := &peakMonitor{}
	p.ok = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
	return p
}

// mark closes the current window and opens the next.
func (p *peakMonitor) mark() {
	if !p.ok {
		return
	}
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		p.ok = false
		return
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
				p.mu.Lock()
				p.peaks = append(p.peaks, kb/1024)
				p.mu.Unlock()
			}
		}
	}
	p.ok = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// every marks a window every d until stopped.
func (p *peakMonitor) every(d time.Duration) {
	p.stop, p.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(p.done)
		t := time.NewTicker(d)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				p.mark()
			case <-p.stop:
				return
			}
		}
	}()
}

// result stops a ticking monitor and returns the median window peak in MB.
func (p *peakMonitor) result() float64 {
	if p.stop != nil {
		close(p.stop)
		<-p.done
		p.stop = nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.ok || len(p.peaks) == 0 {
		return peakRSSMB()
	}
	return median(p.peaks)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// samples is a concurrency-safe bag of named float series.
type samples struct {
	mu sync.Mutex
	m  map[string][]float64
}

func newSamples() *samples { return &samples{m: map[string][]float64{}} }

func (s *samples) add(name string, v float64) {
	s.mu.Lock()
	s.m[name] = append(s.m[name], v)
	s.mu.Unlock()
}

func (s *samples) get(name string) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.m[name]...)
}

func (s *samples) sum(name string) float64 {
	t := 0.0
	for _, v := range s.get(name) {
		t += v
	}
	return t
}

// failures counts attempted and failed operations by class. Every
// mismatch is printed with its operation id (the first few per class) to
// standard error, and the run continues.
type failures struct {
	mu        sync.Mutex
	attempted map[string]int
	failed    map[string]int
}

const printPerClass = 3

func newFailures() *failures {
	return &failures{attempted: map[string]int{}, failed: map[string]int{}}
}

// record notes one attempted operation; err non-nil marks it failed.
func (f *failures) record(class, id string, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.attempted[class]++
	if err == nil {
		return
	}
	f.failed[class]++
	if f.failed[class] <= printPerClass {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %s %s: %v\n", class, id, err)
	}
}

func (f *failures) totals() (attempted, failed int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, n := range f.attempted {
		attempted += n
	}
	for _, n := range f.failed {
		failed += n
	}
	return
}

// byClass renders "class=failed/attempted" for every class that failed.
func (f *failures) byClass() map[string]string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := map[string]string{}
	for c, n := range f.failed {
		out[c] = fmt.Sprintf("%d/%d", n, f.attempted[c])
	}
	return out
}

// ---- spans ----

// span is one traced interval. Parent is the index of the enclosing span
// (-1 for a root); Op is the request or job id the span belongs to.
// Replayed spans time a layer call made again after the operation, from
// the benchmark's own code, in the order the program makes it.
type span struct {
	Name   string `json:"name"`
	Op     string `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Replay bool   `json:"replay,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written once when the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span from start to end and returns its index.
func (t *tracer) add(name, op string, parent int, start, end time.Time, replay bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Op: op, Parent: parent, Replay: replay,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	return len(t.spans) - 1
}

// addDur records a span of known duration d that began at start.
func (t *tracer) addDur(name, op string, parent int, start time.Time, d time.Duration, replay bool) int {
	return t.add(name, op, parent, start, start.Add(d), replay)
}

// selfTimes returns, per span name, the total self time: each span's
// duration minus the time its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[s.Name] += s.dur() - child[i]
	}
	return out
}

// rootsTotal sums the durations of the root spans.
func (t *tracer) rootsTotal() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, s := range t.spans {
		if s.Parent < 0 {
			d += s.dur()
		}
	}
	return d
}

// write stores the spans and the run's notes as one JSON file.
func (t *tracer) write(path string, notes map[string]any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	notes["spans"] = t.spans
	b, err := json.Marshal(notes)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// ---- process counters ----

// memDelta captures Go runtime allocation and GC counters.
type memDelta struct {
	bytes, mallocs uint64
	gcs            uint32
}

func readMem() memDelta {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memDelta{bytes: m.TotalAlloc, mallocs: m.Mallocs, gcs: m.NumGC}
}

func (a memDelta) since(b memDelta) memDelta {
	return memDelta{bytes: a.bytes - b.bytes, mallocs: a.mallocs - b.mallocs, gcs: a.gcs - b.gcs}
}

// peakRSSMB is the process's peak resident set so far, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// liveHeapMB forces a collection and reports the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counters is a snapshot of the process-wide counters the traced run
// reports as deltas over its untraced phase.
type counters struct {
	mem  memDelta
	idx  obs.IndexStats
	cow  xmltree.COWStats
	plan xq.CacheStats
}

func readCounters() counters {
	return counters{mem: readMem(), idx: xq.MetricsSnapshot().Index, cow: xmltree.Stats(), plan: xq.PlanCache()}
}

// fillDeltas writes the per-layer metrics that come from counter deltas
// between c0 and c1 over ops operations.
func fillDeltas(m map[string]float64, c0, c1 counters, ops int) {
	mem := c1.mem.since(c0.mem)
	m["go.alloc_mb_per_op"] = float64(mem.bytes) / (1 << 20) / float64(ops)
	m["go.gc_cycles_per_op"] = float64(mem.gcs) / float64(ops)
	hits, fb := c1.idx.Hits-c0.idx.Hits, c1.idx.Fallbacks-c0.idx.Fallbacks
	m["index.hit_ratio"] = ratio(float64(hits), float64(hits+fb))
	m["index.prunes"] = float64(c1.idx.Prunes - c0.idx.Prunes)
	m["index.build_ms"] = float64(c1.idx.BuildNanos-c0.idx.BuildNanos) / 1e6
	m["xmltree.cow.break_ratio"] = ratio(float64(c1.cow.Breaks-c0.cow.Breaks), float64(c1.cow.Clones-c0.cow.Clones))
	ph, pm := c1.plan.Hits-c0.plan.Hits, c1.plan.Misses-c0.plan.Misses
	m["xq.plan_cache.hit_ratio"] = ratio(float64(ph), float64(ph+pm))
}

// compilePhases compiles src with a collecting tracer and adds each
// compile phase's duration, in microseconds, to s under its layer name.
func compilePhases(s *samples, src string, update bool) error {
	var c xq.Collector
	var err error
	if update {
		_, err = xq.CompileUpdate(src, xq.WithTracer(&c))
	} else {
		_, err = xq.Compile(src, xq.WithTracer(&c))
	}
	if err != nil {
		return err
	}
	addPhases(s, &c)
	return nil
}

// phaseLayer names the layer of each compile phase event.
var phaseLayer = map[string]string{
	"parse": "parser.us", "optimize": "optimizer.us", "shapes": "shapes.us", "compile": "interp.lower_us",
}

func addPhases(s *samples, c *xq.Collector) {
	for _, ev := range c.OfKind(xq.PhaseEnd) {
		if name, ok := phaseLayer[ev.Name]; ok {
			s.add(name, us(ev.Elapsed))
		}
	}
}

// fillCompile writes the compile-chain medians from s.
func fillCompile(m map[string]float64, s *samples) {
	for _, name := range phaseLayer {
		m[name] = median(s.get(name))
	}
}

// reconcile checks the traced run's books: the layers' self times (each
// span's duration minus its children's) must add up to the traced
// end-to-end time, the root spans' total, except for the self time of the
// glue spans, which no measured layer explains. That residual must stay
// within residualBound of the end-to-end time. The tracing overhead, the
// traced against the untraced mean operation latency, is reported next to
// it.
const residualBound = 0.25

func reconcile(m map[string]float64, notes map[string]any, tr *tracer, glue []string, tracedMean, untracedMean float64) {
	e2e := tr.rootsTotal()
	self := tr.selfTimes()
	var layers, residual time.Duration
	selfMs := map[string]float64{}
	for name, d := range self {
		selfMs[name] = ms(d)
		layers += d
	}
	for _, g := range glue {
		residual += self[g]
		layers -= self[g]
	}
	share := ratio(float64(residual), float64(e2e))
	overhead := ratio(tracedMean, untracedMean) - 1
	ok := math.Abs(share) <= residualBound
	m["trace.residual_share"] = share
	m["trace.overhead_ratio"] = overhead
	notes["reconciliation"] = map[string]any{
		"traced_e2e_ms":       ms(e2e),
		"layer_self_ms":       selfMs,
		"measured_layers_ms":  ms(layers),
		"glue_spans":          glue,
		"residual_ms":         ms(residual),
		"residual_share":      share,
		"residual_bound":      residualBound,
		"reconciled":          ok,
		"traced_mean_op_ms":   tracedMean,
		"untraced_mean_op_ms": untracedMean,
		"tracing_overhead":    overhead,
	}
	fmt.Printf("reconciliation: traced e2e %.1f ms = measured layers %.1f ms + residual %.1f ms (share %.3f, bound ±%.2f) reconciled=%t; tracing overhead %+.3f\n",
		ms(e2e), ms(layers), ms(residual), share, residualBound, ok, overhead)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
