package main

// docgen.go is the docgen-batch workload: one worker generates documents
// from seeded AWB models, first with the XQuery generator (xqgen), then
// with the native generator over the same job sequence. An operation is
// one xqgen document: Generate followed by Result.DocString. Every xqgen
// document must equal the native one for the same job, bytes and
// Problems alike.

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lopsided/internal/awb"
	"lopsided/internal/docgen"
	"lopsided/internal/docgen/native"
	"lopsided/internal/docgen/xqgen"
	"lopsided/internal/xmltree"
	"lopsided/xq"
)

// docWorkers is 1 for the same reason as serveClients: with two workers
// both cores of a 2-core host are saturated and ops_per_s follows the rest
// of the host (run-to-run spread up to 0.12 over three sets of ten seeds on
// a 2-core Xeon VM).
const docWorkers = 1

// loadedJob is a job after set-up: the model and template as trees.
type loadedJob struct {
	name  string
	model *awb.Model
	tpl   *xmltree.Node
}

// docOp is one generated document.
type docOp struct {
	job    int
	digest [32]byte // over DocString and Problems
	lat    time.Duration
	end    time.Time
	err    error
}

func resultDigest(doc string, problems []string) [32]byte {
	return sha256.Sum256([]byte(doc + "\x00" + strings.Join(problems, "\x00")))
}

// loadJobs imports every distinct model and parses every template from
// XML text, as awbgen does; it returns the loaded jobs and the time the
// model imports took.
func loadJobs(jobs []docJob) ([]loadedJob, time.Duration, error) {
	models := map[string]*awb.Model{}
	tpls := map[string]*xmltree.Node{}
	var importTime time.Duration
	out := make([]loadedJob, len(jobs))
	for i, j := range jobs {
		m, ok := models[j.Model]
		if !ok {
			t := time.Now()
			var err error
			m, err = awb.ImportReader(strings.NewReader(j.Model))
			importTime += time.Since(t)
			if err != nil {
				return nil, 0, fmt.Errorf("import %s: %w", j.Name, err)
			}
			models[j.Model] = m
		}
		tpl, ok := tpls[j.Template]
		if !ok {
			var err error
			tpl, err = xmltree.ParseReaderWith(strings.NewReader(j.Template), xmltree.ParseOptions{TrimWhitespace: true})
			if err != nil {
				return nil, 0, fmt.Errorf("template %s: %w", j.Name, err)
			}
			tpls[j.Template] = tpl
		}
		out[i] = loadedJob{name: j.Name, model: m, tpl: tpl}
	}
	return out, importTime, nil
}

// docSetup is one set-up: load the jobs and compile the generator's two
// programs (phase 1 and the update program) without the plan cache.
func docSetup(jobs []docJob) ([]loadedJob, time.Duration, error) {
	loaded, imp, err := loadJobs(jobs)
	if err != nil {
		return nil, 0, err
	}
	if _, err := xq.Compile(xqgen.PhaseSources()[0]); err != nil {
		return nil, 0, fmt.Errorf("compile phase 1: %w", err)
	}
	if _, err := xq.CompileUpdate(xqgen.UpdateSource()); err != nil {
		return nil, 0, fmt.Errorf("compile update program: %w", err)
	}
	return loaded, imp, nil
}

// runGen generates documents with one generator per worker, claiming job
// rotations in order, until d has passed (finishing the rotation in
// progress) or, when limit > 0, until limit documents are done. each is
// called on the worker's goroutine after every document.
func runGen(jobs []loadedJob, gens []docgen.Generator, d time.Duration, limit int,
	each func(worker, i int, res *docgen.Result, doc string, start time.Time, lat time.Duration)) ([]docOp, time.Time, time.Duration) {
	var next atomic.Int64
	var stop atomic.Bool
	ops := make([]docOp, 0, 1024)
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for w := range gens {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if limit > 0 && i >= limit {
					return
				}
				if limit == 0 && i%len(jobs) == 0 && time.Since(start) >= d {
					stop.Store(true)
				}
				if stop.Load() {
					return
				}
				j := jobs[i%len(jobs)]
				t := time.Now()
				res, err := gens[w].Generate(j.model, j.tpl)
				var doc string
				if err == nil {
					doc = res.DocString()
				}
				lat := time.Since(t)
				op := docOp{job: i, lat: lat, end: time.Now(), err: err}
				if err == nil {
					op.digest = resultDigest(doc, res.Problems)
				}
				if each != nil {
					each(w, i, res, doc, t, lat)
				}
				mu.Lock()
				ops = append(ops, op)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return ops, start, time.Since(start)
}

// checkPairs compares every xqgen document with the native one for the
// same operation index and records the outcome.
func checkPairs(f *failures, jobs []loadedJob, xqOps, natOps []docOp) {
	nat := map[int]docOp{}
	for _, o := range natOps {
		nat[o.job] = o
	}
	for _, o := range xqOps {
		n, ok := nat[o.job]
		var err error
		switch {
		case o.err != nil:
			err = fmt.Errorf("xqgen: %v", o.err)
		case !ok:
			err = fmt.Errorf("no native document for this operation")
		case n.err != nil:
			err = fmt.Errorf("native: %v", n.err)
		case n.digest != o.digest:
			err = fmt.Errorf("xqgen and native documents or Problems differ")
		}
		f.record("doc."+jobs[o.job%len(jobs)].name, fmt.Sprintf("job#%d", o.job), err)
	}
}

func latencies(ops []docOp) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		out[i] = ms(o.lat)
	}
	return out
}

func runDocgen(e *env) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}, fails: newFailures(), notes: map[string]any{}}
	m := out.metrics
	specs := genJobs(e.seed)

	var setups, imports []float64
	var jobs []loadedJob
	for r := 0; r < setupReps; r++ {
		runtime.GC() // start each set-up from a collected heap
		t := time.Now()
		loaded, imp, err := docSetup(specs)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		imports = append(imports, ms(imp))
		jobs = loaded
	}
	m["setup_s"] = median(setups)

	xqGens := func() []docgen.Generator {
		g := make([]docgen.Generator, docWorkers)
		for i := range g {
			g[i] = xqgen.New()
		}
		return g
	}
	natGens := make([]docgen.Generator, docWorkers)
	for i := range natGens {
		natGens[i] = native.New()
	}
	// Warm-up: every job once through each generator, untimed.
	runGen(jobs, xqGens(), 0, len(jobs), nil)
	runGen(jobs, natGens, 0, len(jobs), nil)

	if !e.trace {
		peaks := newPeakMonitor()
		peaks.every(e.seconds / throughputWindows)
		xqOps, start, _ := runGen(jobs, xqGens(), e.seconds, 0, nil)
		peak := peaks.result()
		natOps, _, _ := runGen(jobs, natGens, 0, len(xqOps), nil)
		checkPairs(out.fails, jobs, xqOps, natOps)
		ends := make([]time.Time, len(xqOps))
		for i, o := range xqOps {
			ends[i] = o.end
		}
		chunk := chunkOf(len(ends))
		out.setEndToEnd(latencies(xqOps), chunk, chunkedRate(ends, start, chunk), peak)
		return out, nil
	}

	// Traced run. Untraced third first: counter deltas and the overhead
	// baseline.
	m["awb.import_ms"] = median(imports)
	comp := newSamples()
	for r := 0; r < setupReps; r++ {
		if err := compilePhases(comp, xqgen.PhaseSources()[0], false); err != nil {
			return nil, err
		}
		if err := compilePhases(comp, xqgen.UpdateSource(), true); err != nil {
			return nil, err
		}
	}
	fillCompile(m, comp)

	c0 := readCounters()
	ops0, _, _ := runGen(jobs, xqGens(), e.seconds/3, 0, nil)
	fillDeltas(m, c0, readCounters(), len(ops0))

	tr := newTracer()
	out.tr = tr
	layer := newSamples()
	// One generator per worker, each with a slow-query hook at threshold
	// 0 that hands the phase statistics to that worker's current job.
	type phaseStat struct {
		phase int
		st    xq.EvalStats
		at    time.Time
	}
	current := make([][]phaseStat, docWorkers)
	gens := make([]docgen.Generator, docWorkers)
	for w := range gens {
		w := w
		g := xqgen.New()
		g.SlowQueryLog(0, func(phase int, st xq.EvalStats) {
			current[w] = append(current[w], phaseStat{phase, st, time.Now()})
		})
		gens[w] = g
	}
	var serMu sync.Mutex
	var serBytes, serSecs float64
	ops1, _, _ := runGen(jobs, gens, e.seconds*2/3, 0, func(w, i int, res *docgen.Result, doc string, start time.Time, lat time.Duration) {
		op := fmt.Sprintf("job#%d", i)
		phases := current[w]
		current[w] = nil
		// DocString ran last: time it again to split it off Generate.
		t := time.Now()
		_ = res.DocString()
		tSer := time.Since(t)
		j := jobs[i%len(jobs)]
		t = time.Now()
		_ = j.model.ExportXML()
		tExp := time.Since(t)

		root := tr.addDur("docgen.doc", op, -1, start, lat, false)
		gen := tr.addDur("xqgen.generate", op, root, start, lat-tSer, false)
		tr.addDur("awb.export_xml", op, gen, t, tExp, true)
		measured := tExp + tSer
		var steps, nodes, elided int64
		for _, p := range phases {
			name := "xqgen.phase1"
			if p.phase == 2 {
				name = "xqgen.update"
				layer.add("update.spine_nodes", float64(p.st.SpineNodes))
				layer.add("update.updates_applied", float64(p.st.UpdatesApplied))
			}
			tr.add(name, op, gen, p.at.Add(-p.st.Wall), p.at, false)
			layer.add(name, ms(p.st.Wall))
			steps += p.st.Steps
			nodes += p.st.Nodes
			elided += p.st.ShapeChecksElided
			measured += p.st.Wall
		}
		layer.add("steps", float64(steps))
		layer.add("nodes", float64(nodes))
		layer.add("elided", float64(elided))
		tr.addDur("docgen.serialize", op, root, start.Add(lat-tSer), tSer, true)
		layer.add("awb.export_xml", ms(tExp))
		layer.add("docgen.serialize", ms(tSer))
		layer.add("xqgen.residual", ms(lat-measured))
		serMu.Lock()
		serBytes += float64(len(doc))
		serSecs += tSer.Seconds()
		serMu.Unlock()
	})
	natOps, _, natElapsed := runGen(jobs, natGens, 0, len(ops0)+len(ops1), nil)
	checkPairs(out.fails, jobs, append(ops0, ops1...), natOps)

	m["xqgen.phase1_ms.p50"] = median(layer.get("xqgen.phase1"))
	m["xqgen.update_ms.p50"] = median(layer.get("xqgen.update"))
	m["update.transform_ms.p50"] = m["xqgen.update_ms.p50"]
	m["update.spine_nodes"] = mean(layer.get("update.spine_nodes"))
	m["update.updates_applied"] = mean(layer.get("update.updates_applied"))
	m["xqgen.residual_ms.p50"] = median(layer.get("xqgen.residual"))
	m["awb.export_xml_ms.p50"] = median(layer.get("awb.export_xml"))
	m["docgen.serialize_ms.p50"] = median(layer.get("docgen.serialize"))
	m["xmltree.serialize_mb_per_s"] = serBytes / 1e6 / serSecs
	m["native.generate_ms.p50"] = median(latencies(natOps))
	m["native.docs_per_s"] = float64(len(natOps)) / natElapsed.Seconds()
	m["interp.steps_per_op"] = mean(layer.get("steps"))
	m["interp.nodes_per_op"] = mean(layer.get("nodes"))
	m["interp.shape_checks_elided_per_op"] = mean(layer.get("elided"))

	reconcile(m, out.notes, tr, []string{"xqgen.generate"}, mean(latencies(ops1)), mean(latencies(ops0)))
	return out, nil
}
