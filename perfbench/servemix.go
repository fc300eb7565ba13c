package main

// servemix.go is the serve-mix workload: the xqd daemon (server.New over
// a generated corpus, served from Server.Handler() with the default
// Config) on loopback, driven by one keep-alive HTTP client in a closed
// loop. An operation is one HTTP request.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lopsided/internal/server"
	"lopsided/internal/server/store"
	"lopsided/xq"
)

// serveClients is 1, not 2: on a 2-core host two clients and the server
// saturate both cores, and the throughput then follows whatever else the
// host runs (on a 2-core Xeon VM, the run-to-run spread of ops_per_s was
// 0.16 with two clients against 0.04 with one, six interleaved runs each).
const serveClients = 1

// serveLimits are the server's documented default limits, which every
// request in the mix runs under (no request sends limit hints).
var serveLimits = xq.Limits{Timeout: 5 * time.Second, MaxSteps: 5_000_000, MaxNodes: 1_000_000, MaxOutputBytes: 8 << 20}

// handlerRec is one ServeHTTP call as the traced run's wrapper saw it.
type handlerRec struct {
	start time.Time
	dur   time.Duration
}

type serveWorkload struct {
	e      *env
	c      *corpus
	srv    *server.Server
	base   string
	client *http.Client
	out    *outcome
	next   atomic.Int64

	// Traced run only.
	tracing   atomic.Bool
	handlers  sync.Map // op id → chan handlerRec
	tr        *tracer
	layer     *samples
	plans     sync.Map // source → *xq.Query, the replay's own compiled plans
	replayMu  sync.Mutex
	replayErr error
}

func runServeMix(e *env) (*outcome, error) {
	w := &serveWorkload{
		e:   e,
		c:   genCorpus(e.seed),
		out: &outcome{metrics: map[string]float64{}, fails: newFailures(), notes: map[string]any{}},
	}
	m := w.out.metrics
	dataDir := filepath.Join(e.work, "data")
	if err := w.c.write(dataDir); err != nil {
		return nil, err
	}

	// Set-up: opening the daemon over the corpus (store load and parse).
	var setups []float64
	for r := 0; r < setupReps; r++ {
		runtime.GC() // start each set-up from a collected heap
		t := time.Now()
		srv, err := server.New(dataDir, server.Config{})
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		w.srv = srv
	}
	m["setup_s"] = median(setups)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := w.srv.Handler()
	httpSrv := &http.Server{Handler: http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if !w.tracing.Load() {
			h.ServeHTTP(rw, r)
			return
		}
		t := time.Now()
		h.ServeHTTP(rw, r)
		d := time.Since(t)
		if ch, ok := w.handlers.Load(r.Header.Get("X-Bench-Op")); ok {
			ch.(chan handlerRec) <- handlerRec{t, d}
		}
	})}
	served := make(chan error, 1)
	go func() { served <- httpSrv.Serve(ln) }()
	transport := &http.Transport{MaxIdleConns: serveClients, MaxIdleConnsPerHost: serveClients, DisableCompression: true}
	w.client = &http.Client{Transport: transport}
	w.base = "http://" + ln.Addr().String()
	defer func() {
		transport.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(ctx)
		<-served
		_ = w.srv.Shutdown(ctx)
	}()

	// Warm-up: the first requests of the sequence, one client, unchecked
	// and untimed; they fill plan caches and build indexes.
	for i := 0; i < 2*blockSize; i++ {
		req := w.c.requestAt(e.seed, int(w.next.Add(1)-1))
		if _, _, _, err := w.send(req, ""); err != nil {
			return nil, err
		}
	}

	if !e.trace {
		peaks := newPeakMonitor()
		peaks.every(e.seconds / throughputWindows)
		lat, rate, err := w.measure(e.seconds)
		if err != nil {
			return nil, err
		}
		w.out.setEndToEnd(lat, chunkOf(len(lat)), rate, peaks.result())
		return w.out, nil
	}
	return w.out, w.traced(dataDir)
}

// send posts one request and returns status, body and client latency.
func (w *serveWorkload) send(req request, op string) (int, []byte, time.Duration, error) {
	var body io.Reader
	if req.Body != "" {
		body = strings.NewReader(req.Body)
	}
	hr, err := http.NewRequest(http.MethodPost, w.base+req.Path, body)
	if err != nil {
		return 0, nil, 0, err
	}
	if op != "" {
		hr.Header.Set("X-Bench-Op", op)
	}
	t := time.Now()
	resp, err := w.client.Do(hr)
	if err != nil {
		return 0, nil, 0, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t)
	if err != nil {
		return 0, nil, 0, err
	}
	return resp.StatusCode, b, d, nil
}

// measure runs the closed loop for d and returns every request's client
// latency in ms and the windowed throughput. A transport error stops the
// run; a wrong answer is recorded and the run continues.
func (w *serveWorkload) measure(d time.Duration) ([]float64, float64, error) {
	var mu sync.Mutex
	var lat []float64
	var ends []time.Time
	var firstErr error
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < serveClients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				req := w.c.requestAt(w.e.seed, int(w.next.Add(1)-1))
				batch := []request{req}
				if req.Class == clsTransform {
					batch = append(batch, w.c.verifyRequest(req))
				}
				for _, r := range batch {
					dur, err := w.do(r)
					if err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						return
					}
					mu.Lock()
					lat = append(lat, ms(dur))
					ends = append(ends, time.Now())
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return lat, chunkedRate(ends, start, chunkOf(len(ends))), firstErr
}

// do sends one request, checks it, and in the traced run records its
// spans and replays it.
func (w *serveWorkload) do(req request) (time.Duration, error) {
	op := fmt.Sprintf("%s#%d", req.Class, req.Index)
	var ch chan handlerRec
	tracing := w.tracing.Load()
	if tracing {
		ch = make(chan handlerRec, 1)
		w.handlers.Store(op, ch)
		defer w.handlers.Delete(op)
	}
	start := time.Now()
	status, body, dur, err := w.send(req, op)
	if err != nil {
		return 0, err
	}
	served, cerr := w.c.checkResponse(req, status, body)
	w.out.fails.record(req.Class, op, cerr)
	if tracing {
		hrec := <-ch
		root := w.tr.addDur("client.request", op, -1, start, dur, false)
		hs := w.tr.add("server.handler", op, root, hrec.start, hrec.start.Add(hrec.dur), false)
		w.layer.add("http_overhead", ms(dur-hrec.dur))
		if req.Class == clsReload {
			// The store reload is the whole handler; it is measured, not replayed.
			w.tr.add("store.reload", op, hs, hrec.start, hrec.start.Add(hrec.dur), false)
			w.layer.add("reload", ms(hrec.dur))
		} else if status == 200 {
			replayed, err := w.replay(req, op, hs, body, served)
			if err != nil {
				w.replayMu.Lock()
				if w.replayErr == nil {
					w.replayErr = err
				}
				w.replayMu.Unlock()
			}
			w.layer.add("residual", ms(hrec.dur-replayed))
		}
	}
	return dur, nil
}

// replay runs the request again through the public layer calls, in the
// handler's order: JSON decode, compile (only when the response reported
// a plan-cache miss), Eval/Transform on the current snapshot with the
// collection's resolver, serialization, JSON encode. It records one span
// per layer under the handler span and returns their total. The replayed
// result must equal the served one.
func (w *serveWorkload) replay(req request, op string, parent int, body []byte, served string) (time.Duration, error) {
	var total time.Duration
	timed := func(name string, f func() error) (time.Duration, error) {
		t := time.Now()
		err := f()
		d := time.Since(t)
		w.tr.add(name, op, parent, t, t.Add(d), true)
		total += d
		return d, err
	}
	update := req.Class == clsTransform
	var qreq server.QueryRequest
	var treq server.TransformRequest
	d, err := timed("server.json_decode", func() error {
		if update {
			return json.NewDecoder(strings.NewReader(req.Body)).Decode(&treq)
		}
		return json.NewDecoder(strings.NewReader(req.Body)).Decode(&qreq)
	})
	w.layer.add("json_decode", us(d))
	if err != nil {
		return total, err
	}
	src, colName, tenant, key := qreq.Query, qreq.Collection, qreq.Tenant, qreq.Query
	if update {
		src, colName, tenant, key = treq.Update, treq.Collection, treq.Tenant, "update:"+treq.Update
	}
	var resp struct {
		PlanCache string `json:"plan_cache"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return total, err
	}

	q, cached := w.plans.Load(key)
	if !cached || resp.PlanCache == "miss" {
		var c xq.Collector
		compile := func() (err error) {
			if update {
				q, err = xq.CompileUpdate(src, xq.WithOptLevel(xq.O2), xq.WithTracer(&c))
			} else {
				q, err = xq.Compile(src, xq.WithOptLevel(xq.O2), xq.WithTracer(&c))
			}
			return err
		}
		if resp.PlanCache == "miss" {
			// Only a compile the server also made is timed.
			_, err = timed("xq.compile", compile)
			addPhases(w.layer, &c)
		} else {
			err = compile()
		}
		if err != nil {
			return total, err
		}
		w.plans.Store(key, q)
	}
	plan := q.(*xq.Query)

	snap := w.srv.Store().Snapshot()
	col, ok := snap.Collection(colName)
	if !ok {
		return total, fmt.Errorf("%s: no collection %q", op, colName)
	}
	var st xq.EvalStats
	opts := []xq.Option{xq.WithLimits(serveLimits), xq.WithDocResolver(snap.Resolver(colName)), xq.WithStats(&st)}
	var seq xq.Sequence
	var tree *xq.Node
	if update {
		d, err = timed("update.transform", func() (err error) {
			tree, err = plan.Transform(context.Background(), col.Root, opts...)
			return err
		})
		w.layer.add("update.spine_nodes", float64(st.SpineNodes))
		w.layer.add("update.updates_applied", float64(st.UpdatesApplied))
	} else {
		d, err = timed("interp.eval", func() (err error) {
			seq, err = plan.Eval(context.Background(), col.Root, opts...)
			return err
		})
	}
	if err != nil {
		return total, err
	}
	w.layer.add("eval."+req.Class, ms(d))
	w.layer.add("steps", float64(st.Steps))
	w.layer.add("nodes", float64(st.Nodes))
	w.layer.add("elided", float64(st.ShapeChecksElided))

	var got string
	d, _ = timed("xmltree.serialize", func() error {
		if update {
			got = tree.String()
		} else {
			got = xq.Serialize(seq)
		}
		return nil
	})
	w.layer.add("serialize_bytes", float64(len(got)))
	w.layer.add("serialize_ms", ms(d))

	var out any = server.QueryResponse{Result: got, Collection: colName, Tenant: tenant, PlanCache: resp.PlanCache}
	if update {
		out = server.TransformResponse{Result: got, Collection: colName, Tenant: tenant, PlanCache: resp.PlanCache}
	}
	var encoded bytes.Buffer
	d, _ = timed("server.json_encode", func() error { return json.NewEncoder(&encoded).Encode(out) })
	w.layer.add("json_encode", us(d))

	if got != served {
		return total, fmt.Errorf("%s: replayed result %.60q differs from served %.60q", op, got, served)
	}
	return total, nil
}

// tenantCache sums the per-tenant plan-cache hits and misses from /stats.
func (w *serveWorkload) tenantCache() (hits, misses int64, err error) {
	resp, err := w.client.Get(w.base + "/stats")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var st struct {
		Tenants map[string]server.TenantCacheStats `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, 0, err
	}
	for _, t := range st.Tenants {
		hits += t.Hits
		misses += t.Misses
	}
	return hits, misses, nil
}

// traced is the per-layer run: a third of the time untraced (counter
// deltas, admission and tenant-cache deltas, the overhead baseline), then
// the traced closed loop with every request replayed layer by layer.
func (w *serveWorkload) traced(dataDir string) error {
	m := w.out.metrics
	var opens []float64
	for r := 0; r < 3; r++ {
		t := time.Now()
		if _, err := store.Open(dataDir, store.Options{}); err != nil {
			return err
		}
		opens = append(opens, time.Since(t).Seconds())
	}
	m["store.open_s"] = median(opens)

	h0, mi0, err := w.tenantCache()
	if err != nil {
		return err
	}
	s0 := w.srv.Metrics().Snapshot()
	c0 := readCounters()
	lat0, _, err := w.measure(w.e.seconds / 3)
	if err != nil {
		return err
	}
	fillDeltas(m, c0, readCounters(), len(lat0))
	s1 := w.srv.Metrics().Snapshot()
	h1, mi1, err := w.tenantCache()
	if err != nil {
		return err
	}
	m["server.admission.queued_ratio"] = ratio(float64(s1.Queued-s0.Queued), float64(s1.Admitted-s0.Admitted))
	m["server.admission.shed"] = float64(s1.Shed() - s0.Shed())
	m["server.tenant_cache.hit_ratio"] = ratio(float64(h1-h0), float64(h1-h0+mi1-mi0))

	w.tr = newTracer()
	w.out.tr = w.tr
	w.layer = newSamples()
	w.tracing.Store(true)
	lat1, _, err := w.measure(w.e.seconds * 2 / 3)
	w.tracing.Store(false)
	if err != nil {
		return err
	}
	if w.replayErr != nil {
		return fmt.Errorf("traced replay: %w", w.replayErr)
	}
	l := w.layer
	m["server.http_overhead_ms.p50"] = median(l.get("http_overhead"))
	m["server.handler_residual_ms.p50"] = median(l.get("residual"))
	m["server.handler_residual_ms.p99"] = quantile(l.get("residual"), 0.99)
	m["server.json_decode_us.p50"] = median(l.get("json_decode"))
	m["server.json_encode_us.p50"] = median(l.get("json_encode"))
	m["server.reload_ms.p50"] = median(l.get("reload"))
	for _, c := range servedClasses {
		m["interp.eval_ms."+c+".p50"] = median(l.get("eval." + c))
	}
	m["update.transform_ms.p50"] = m["interp.eval_ms."+clsTransform+".p50"]
	m["update.spine_nodes"] = mean(l.get("update.spine_nodes"))
	m["update.updates_applied"] = mean(l.get("update.updates_applied"))
	m["interp.steps_per_op"] = mean(l.get("steps"))
	m["interp.nodes_per_op"] = mean(l.get("nodes"))
	m["interp.shape_checks_elided_per_op"] = mean(l.get("elided"))
	m["xmltree.serialize_mb_per_s"] = l.sum("serialize_bytes") / 1e6 / (l.sum("serialize_ms") / 1e3)
	fillCompile(m, l)
	w.out.notes["reloads_traced"] = len(l.get("reload"))
	reconcile(m, w.out.notes, w.tr, []string{"server.handler"}, mean(lat1), mean(lat0))
	return nil
}
