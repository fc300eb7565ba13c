package main

// streamscan.go is the stream-scan workload: one goroutine cycles
// xq.CompileStream(...).EvalReader over two ~4 MB documents (flat and
// grouped) with three queries, one per streaming tier. An operation is one
// scan of one document by one query.

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"lopsided/internal/xmltree"
	"lopsided/xq"
)

// scanQueries maps each tier to the query that resolves to it.
var scanQueries = map[string]string{
	"full":        `count(//item[@k='k7'])`,
	"projected":   `sum(//item/@n)`,
	"materialize": `count(//item/..)`,
}

// scanExpect is the generator's answer for a tier's query on d.
func scanExpect(d *streamDoc, tier string) string {
	switch tier {
	case "full":
		return strconv.Itoa(d.CountK7)
	case "projected":
		return strconv.Itoa(d.SumN)
	default:
		return strconv.Itoa(d.Parents)
	}
}

// scanOp is one stream-scan operation: one query over one document.
type scanOp struct {
	doc  *streamDoc
	tier string
}

type scanWorkload struct {
	out      *outcome
	docs     []streamDoc
	queries  map[string]*xq.StreamQuery
	rotation []scanOp
	peaks    *peakMonitor // when set, marked at every rotation boundary
}

func runStreamScan(e *env) (*outcome, error) {
	w := &scanWorkload{
		out:     &outcome{metrics: map[string]float64{}, fails: newFailures(), notes: map[string]any{}},
		docs:    genStreamDocs(e.seed),
		queries: map[string]*xq.StreamQuery{},
	}
	m := w.out.metrics

	// Set-up: compiling the three stream queries, repeated; the compile
	// of one query takes well under a millisecond, so each repetition
	// compiles the set many times over and reports the mean.
	const compilesPerRep = 500
	var setups []float64
	for r := 0; r < setupReps; r++ {
		runtime.GC() // start each set-up from a collected heap
		t := time.Now()
		for k := 0; k < compilesPerRep; k++ {
			for _, tier := range tiers {
				q, err := xq.CompileStream(scanQueries[tier])
				if err != nil {
					return nil, fmt.Errorf("compile %s: %w", tier, err)
				}
				w.queries[tier] = q
			}
		}
		setups = append(setups, time.Since(t).Seconds()/compilesPerRep)
	}
	m["setup_s"] = median(setups)

	for i := range w.docs {
		for _, tier := range tiers {
			w.rotation = append(w.rotation, scanOp{&w.docs[i], tier})
		}
	}
	// Warm-up: one untimed rotation; it also records the tier each query
	// actually took.
	for _, s := range w.rotation {
		var st xq.EvalStats
		if _, _, err := w.scan(s, &st); err != nil {
			return nil, fmt.Errorf("warm-up %s/%s: %w", s.tier, s.doc.Shape, err)
		}
		w.out.notes["mode."+s.tier] = st.StreamMode
	}

	if !e.trace {
		peaks := newPeakMonitor()
		w.peaks = peaks
		lat, rate := w.measure(e.seconds, nil)
		w.out.setEndToEnd(lat, len(lat), rate, peaks.result())
		return w.out, nil
	}
	return w.out, w.traced(e)
}

// scan runs one operation and checks its answer against the generator's.
func (w *scanWorkload) scan(s scanOp, st *xq.EvalStats) (string, time.Duration, error) {
	t := time.Now()
	res, err := w.queries[s.tier].EvalReader(context.Background(), strings.NewReader(s.doc.Text), xq.WithStats(st))
	d := time.Since(t)
	if err != nil {
		return res, d, err
	}
	if want := scanExpect(s.doc, s.tier); res != want {
		return res, d, fmt.Errorf("got %.60q, want %q", res, want)
	}
	return res, d, nil
}

// measure runs whole rotations until d has passed and returns the
// per-scan latencies in ms and the throughput, scans over scanning time;
// each, when set, sees every scan. Every rotation starts from a collected
// heap, so a scan does not pay, rotation by rotation, a varying share of
// the previous rotation's garbage; the collection between rotations is
// not timed. A run holds only about ten rotations of six unlike scans, so
// whole-run totals and quantiles vary less between runs than per-rotation
// medians do.
func (w *scanWorkload) measure(d time.Duration, each func(i int, s scanOp, res string, start time.Time, dur time.Duration, st *xq.EvalStats)) (lat []float64, rate float64) {
	n := len(w.rotation)
	var busy time.Duration
	start := time.Now()
	for i := 0; time.Since(start) < d || i%n != 0; i++ {
		s := w.rotation[i%n]
		if i%n == 0 {
			if i > 0 && w.peaks != nil {
				w.peaks.mark()
			}
			runtime.GC()
		}
		var st xq.EvalStats
		t := time.Now()
		res, dur, err := w.scan(s, &st)
		w.out.fails.record("scan."+s.tier+"."+s.doc.Shape, fmt.Sprintf("scan#%d", i), err)
		lat = append(lat, ms(dur))
		busy += dur
		if each != nil {
			each(i, s, res, t, dur, &st)
		}
	}
	if w.peaks != nil {
		w.peaks.mark()
	}
	return lat, float64(len(lat)) / busy.Seconds()
}

// traced is the per-layer run: a third of the time untraced (counter
// deltas and the overhead baseline), then scans with each tier's layers
// replayed through their public entry points, then one-off layer probes.
func (w *scanWorkload) traced(e *env) error {
	m, notes := w.out.metrics, w.out.notes
	c0 := readCounters()
	var steps, nodes, elided []float64
	lat0, _ := w.measure(e.seconds/3, func(_ int, _ scanOp, _ string, _ time.Time, _ time.Duration, st *xq.EvalStats) {
		steps = append(steps, float64(st.Steps))
		nodes = append(nodes, float64(st.Nodes))
		elided = append(elided, float64(st.ShapeChecksElided))
	})
	fillDeltas(m, c0, readCounters(), len(lat0))
	m["interp.steps_per_op"], m["interp.nodes_per_op"], m["interp.shape_checks_elided_per_op"] = mean(steps), mean(nodes), mean(elided)

	comp := newSamples()
	for r := 0; r < setupReps; r++ {
		for _, tier := range tiers {
			if err := compilePhases(comp, scanQueries[tier], false); err != nil {
				return err
			}
		}
	}
	fillCompile(m, comp)

	tr := newTracer()
	w.out.tr = tr
	layer := newSamples()
	var replayErr error
	var pruned, scanned []float64
	lat1, _ := w.measure(e.seconds*2/3, func(i int, s scanOp, res string, start time.Time, dur time.Duration, st *xq.EvalStats) {
		op := fmt.Sprintf("scan#%d", i)
		key := s.tier + "." + s.doc.Shape
		root := tr.addDur("scan."+s.tier, op, -1, start, dur, false)
		layer.add("scan."+key, ms(dur))
		if s.tier == "full" {
			// The SAX evaluator is the whole scan; it is measured, not replayed.
			tr.addDur("stream.sax", op, root, start, dur, false)
			scanned = append(scanned, float64(st.BytesScanned))
			return
		}
		q := w.queries[s.tier]
		t := time.Now()
		var tree *xq.Node
		var err error
		name := "xmltree.parse_reader"
		if s.tier == "projected" {
			name = "project.parse"
			tree, err = q.ParseProjected(strings.NewReader(s.doc.Text))
			pruned = append(pruned, float64(st.NodesPruned))
		} else {
			tree, err = xmltree.ParseReader(strings.NewReader(s.doc.Text))
		}
		tParse := time.Since(t)
		tr.add(name, op, root, t, t.Add(tParse), true)
		layer.add(name+"."+s.doc.Shape, ms(tParse))
		if err != nil {
			replayErr = err
			return
		}
		t = time.Now()
		seq, err := q.Eval(context.Background(), tree)
		tEval := time.Since(t)
		tr.add("interp.eval", op, root, t, t.Add(tEval), true)
		layer.add("eval."+key, ms(tEval))
		t = time.Now()
		got := xq.Serialize(seq)
		tSer := time.Since(t)
		tr.add("xmltree.serialize", op, root, t, t.Add(tSer), true)
		if err != nil || got != res {
			replayErr = fmt.Errorf("%s: replay gave %.40q (err %v), served %.40q", op, got, err, res)
		}
	})
	if replayErr != nil {
		return fmt.Errorf("traced replay: %w", replayErr)
	}

	for _, d := range w.docs {
		mb := float64(len(d.Text)) / 1e6
		sh := d.Shape
		m["xmltree.parse_reader_mb_per_s."+sh] = mb / (median(layer.get("xmltree.parse_reader."+sh)) / 1e3)
		m["project.parse_mb_per_s."+sh] = mb / (median(layer.get("project.parse."+sh)) / 1e3)
		m["stream.sax_mb_per_s."+sh] = mb / (median(layer.get("scan.full."+sh)) / 1e3)
		m["interp.eval_ms.full."+sh] = median(layer.get("scan.full." + sh))
		m["interp.eval_ms.projected."+sh] = median(layer.get("eval.projected." + sh))
		m["interp.eval_ms.materialize."+sh] = median(layer.get("eval.materialize." + sh))
		var parses []float64
		for r := 0; r < 3; r++ {
			t := time.Now()
			if _, err := xmltree.Parse(d.Text); err != nil {
				return err
			}
			parses = append(parses, time.Since(t).Seconds())
		}
		m["xmltree.parse_string_mb_per_s."+sh] = mb / median(parses)
	}
	for _, tier := range tiers {
		var bytes, secs float64
		for _, d := range w.docs {
			n := float64(len(layer.get("scan." + tier + "." + d.Shape)))
			bytes += n * float64(len(d.Text))
			secs += layer.sum("scan."+tier+"."+d.Shape) / 1e3
		}
		m["stream.scan_mb_per_s."+tier] = bytes / 1e6 / secs
	}
	m["stream.bytes_scanned"] = mean(scanned)

	// Allocations per element and the live heap each tier holds, on the
	// flat document.
	flat := &w.docs[0]
	mem0 := readMem()
	tree, err := xmltree.ParseReader(strings.NewReader(flat.Text))
	if err != nil {
		return err
	}
	elements := 0
	xmltree.Walk(tree, func(n *xmltree.Node) bool {
		if n.Kind == xmltree.ElementNode {
			elements++
		}
		return true
	})
	m["xmltree.parse_allocs_per_element"] = float64(readMem().since(mem0).mallocs) / float64(elements)
	m["project.pruned_ratio"] = mean(pruned) / float64(elements)
	tree = nil
	base := liveHeapMB()
	for _, tier := range tiers {
		var held any
		switch tier {
		case "full":
			held, err = w.queries[tier].EvalReader(context.Background(), strings.NewReader(flat.Text))
		case "projected":
			held, err = w.queries[tier].ParseProjected(strings.NewReader(flat.Text))
		default:
			held, err = xmltree.ParseReader(strings.NewReader(flat.Text))
		}
		if err != nil {
			return err
		}
		m["xmltree.live_heap_mb."+tier] = liveHeapMB() - base
		runtime.KeepAlive(held)
		held = nil
	}

	reconcile(m, notes, tr, []string{"scan.full", "scan.projected", "scan.materialize"}, mean(lat1), mean(lat0))
	return nil
}
