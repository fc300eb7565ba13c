// Command perfbench is the repository's benchmark: three seeded workloads
// over the engine's public layers, with every output checked against a
// reference the engine did not compute.
//
//	bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 makes a separate
// traced run that reports the per-layer metrics, reconciles layer self
// times with the traced end-to-end time, reports the tracing overhead,
// and writes its spans to .bench_build/traces/. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Workload rationale and the layer → end-to-end map are in ledger.go.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times a workload's set-up is repeated; setup_s
// is the median.
const setupReps = 21

// env is what a workload gets to run with.
type env struct {
	seed    int64
	seconds time.Duration
	trace   bool
	root    string // repository root (the checkout)
	work    string // per-run working directory, under .bench_build
}

// outcome is what a workload reports.
type outcome struct {
	metrics map[string]float64
	fails   *failures
	// notes go into the trace file (reconciliation, absent metrics).
	notes map[string]any
	tr    *tracer
}

// setEndToEnd fills the untraced run's metrics, set-up aside, from its
// operation latencies in ms in completion order, the chunk size its
// throughput was measured in, the throughput and the peak resident memory.
// Latency quantiles are taken per chunk and the median chunk is reported,
// like the throughput.
func (o *outcome) setEndToEnd(lat []float64, chunk int, rate, peakMB float64) {
	attempted, failed := o.fails.totals()
	o.metrics["ops_per_s"] = rate
	o.metrics["lat_p50_ms"] = chunkedQuantile(lat, chunk, 0.5)
	o.metrics["lat_p90_ms"] = chunkedQuantile(lat, chunk, 0.9)
	o.metrics["peak_rss_mb"] = peakMB
	o.metrics["correct_ratio"] = ratio(float64(attempted-failed), float64(attempted))
}

type workloadFunc func(e *env) (*outcome, error)

var workloads = map[string]workloadFunc{
	"serve-mix":    runServeMix,
	"docgen-batch": runDocgen,
	"stream-scan":  runStreamScan,
}

func main() {
	var (
		root     = flag.String("root", ".", "repository root the benchmark runs in")
		workload = flag.String("workload", "", "serve-mix | docgen-batch | stream-scan")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 10, "measurement time in seconds")
		trace    = flag.Int("trace", 0, "1 for the traced per-layer run")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload serve-mix|docgen-batch|stream-scan --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	if err := mainErr(run, *workload, &env{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, root: *root,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
}

func mainErr(run workloadFunc, name string, e *env) error {
	base := filepath.Join(e.root, ".bench_build")
	work, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	e.work = work

	out, err := run(e)
	if err != nil {
		return err
	}
	host := hostFingerprint(e.root)
	hb, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hb)
	fb, _ := json.Marshal(out.fails.byClass())
	fmt.Printf("failures by class (failed/attempted) %s\n", fb)

	names, units := endToEnd, e2eUnits
	if e.trace {
		names, units = perLayerNames(), perLayerUnits
		if out.tr != nil {
			dir := filepath.Join(base, "traces")
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
			out.notes["host"] = host
			out.notes["workload"] = name
			out.notes["seed"] = e.seed
			out.notes["rationale"] = rationale[name]
			out.notes["layer_map"] = layerMap
			path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, e.seed))
			if err := out.tr.write(path, out.notes); err != nil {
				return err
			}
			fmt.Printf("trace written to %s\n", path)
		}
	}
	metrics := map[string]any{}
	var absent []string
	for _, n := range names {
		v, ok := out.metrics[n]
		if !ok {
			absent = append(absent, n)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", n, v)
		}
		metrics[n] = map[string]any{"value": v, "unit": units[n]}
	}
	if len(absent) > 0 && e.trace {
		sort.Strings(absent)
		fmt.Printf("layers not crossed by %s (reported as 0): %s\n", name, strings.Join(absent, " "))
	}
	attempted, failed := out.fails.totals()
	res, err := json.Marshal(map[string]any{
		"correct":   failed == 0 && attempted > 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(res))
	return nil
}

// hostFingerprint stamps a result with what it ran on.
func hostFingerprint(root string) map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.IndexByte(line, ':'); i >= 0 {
					cpu = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	return map[string]any{
		"cpu":           cpu,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"commit":        gitCommit(root),
		"source_sha256": sourceDigest(root),
	}
}

// gitCommit reads HEAD from .git without running git; a checkout without
// .git reports "none" and is identified by source_sha256 instead.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	ref = strings.TrimPrefix(ref, "ref: ")
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
				return f[0]
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every .go file and go.mod of the module, in path
// order, so results from checkouts without git still name their code.
func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && p != root) {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			b, err := os.ReadFile(p)
			if err == nil {
				rel, _ := filepath.Rel(root, p)
				fmt.Fprintf(h, "%s %d\n", rel, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}
