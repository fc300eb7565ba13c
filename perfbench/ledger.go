package main

import "sort"

// ledger.go names everything the benchmark reports: the end-to-end metrics
// of the untraced run, the per-layer metrics of the traced run, why each
// workload exists, and which end-to-end metric each layer metric should
// move on which workload. Later changes cite these names.

// Every workload reports every end-to-end metric. What an operation is
// depends on the workload: an HTTP request (serve-mix), one document from
// the XQuery generator (docgen-batch), one scan of one document by one
// query (stream-scan).
var endToEnd = []string{
	"setup_s",       // the program's own set-up, median of several
	"ops_per_s",     // operations completed per second
	"lat_p50_ms",    // operation latency, median
	"lat_p90_ms",    // operation latency, 90th percentile
	"correct_ratio", // operations whose output matched the reference, over attempted
	"peak_rss_mb",   // peak resident memory of the process
}

var e2eUnits = map[string]string{
	"setup_s":       "s",
	"ops_per_s":     "1/s",
	"lat_p50_ms":    "ms",
	"lat_p90_ms":    "ms",
	"correct_ratio": "ratio",
	"peak_rss_mb":   "MB",
}

var rationale = map[string]string{
	"serve-mix": "What xqd users do: a keep-alive client in a closed loop over 4 tenants, each query class " +
		"pushing a different layer, with transform and reload as write traffic (update, re-parse, index rebuild) beside the reads.",
	"docgen-batch": "The paper's own system and its C3 contrast: a worker generates documents with the XQuery " +
		"generator, then with the native one, so interpreter, COW tree and update layers do almost all the work.",
	"stream-scan": "One goroutine scans ~4 MB documents through the three streaming tiers, so the XML scanner and the " +
		"projection/SAX tiers dominate; flat (25k-wide root) vs grouped (100 per parent) isolates the fan-out effect.",
}

// servedClasses are the serve-mix classes whose evaluation is replayed.
var servedClasses = []string{clsCount, clsProbe, clsReport, clsAgg, clsDump, clsAdhoc, clsTransform}

var (
	tiers  = []string{"full", "projected", "materialize"}
	shapes = []string{"flat", "grouped"}
)

// perLayerUnits gives every per-layer metric its unit.
var perLayerUnits = func() map[string]string {
	u := map[string]string{
		"server.http_overhead_ms.p50":       "ms",
		"server.handler_residual_ms.p50":    "ms",
		"server.handler_residual_ms.p99":    "ms",
		"server.json_decode_us.p50":         "us",
		"server.json_encode_us.p50":         "us",
		"server.admission.queued_ratio":     "ratio",
		"server.admission.shed":             "count",
		"server.tenant_cache.hit_ratio":     "ratio",
		"server.reload_ms.p50":              "ms",
		"store.open_s":                      "s",
		"parser.us":                         "us",
		"optimizer.us":                      "us",
		"shapes.us":                         "us",
		"interp.lower_us":                   "us",
		"xq.plan_cache.hit_ratio":           "ratio",
		"interp.steps_per_op":               "count",
		"interp.nodes_per_op":               "count",
		"interp.shape_checks_elided_per_op": "count",
		"xmltree.parse_allocs_per_element":  "count",
		"xmltree.serialize_mb_per_s":        "MB/s",
		"xmltree.cow.break_ratio":           "ratio",
		"index.hit_ratio":                   "ratio",
		"index.prunes":                      "count",
		"index.build_ms":                    "ms",
		"project.pruned_ratio":              "ratio",
		"stream.bytes_scanned":              "count",
		"update.transform_ms.p50":           "ms",
		"update.spine_nodes":                "count",
		"update.updates_applied":            "count",
		"awb.import_ms":                     "ms",
		"awb.export_xml_ms.p50":             "ms",
		"xqgen.phase1_ms.p50":               "ms",
		"xqgen.update_ms.p50":               "ms",
		"xqgen.residual_ms.p50":             "ms",
		"docgen.serialize_ms.p50":           "ms",
		"native.generate_ms.p50":            "ms",
		"native.docs_per_s":                 "1/s",
		"go.alloc_mb_per_op":                "MB",
		"go.gc_cycles_per_op":               "count",
		"trace.residual_share":              "ratio",
		"trace.overhead_ratio":              "ratio",
	}
	for _, c := range servedClasses {
		u["interp.eval_ms."+c+".p50"] = "ms"
	}
	for _, t := range tiers {
		u["xmltree.live_heap_mb."+t] = "MB"
		u["stream.scan_mb_per_s."+t] = "MB/s"
		for _, s := range shapes {
			u["interp.eval_ms."+t+"."+s] = "ms"
		}
	}
	for _, s := range shapes {
		u["xmltree.parse_reader_mb_per_s."+s] = "MB/s"
		u["xmltree.parse_string_mb_per_s."+s] = "MB/s"
		u["project.parse_mb_per_s."+s] = "MB/s"
		u["stream.sax_mb_per_s."+s] = "MB/s"
	}
	return u
}()

// perLayerNames lists the per-layer metrics in a stable order.
func perLayerNames() []string {
	out := make([]string, 0, len(perLayerUnits))
	for n := range perLayerUnits {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// layerMap says which end-to-end metric each layer metric should move, on
// which workload ("metric @ workload"). It is written into every trace.
var layerMap = map[string]string{
	"server.http_overhead_ms.p50":                         "lat_p50_ms @ serve-mix",
	"server.handler_residual_ms.*":                        "lat_p50_ms, lat_p90_ms @ serve-mix",
	"server.json_decode_us.p50":                           "lat_p50_ms @ serve-mix (q.dump, transform)",
	"server.json_encode_us.p50":                           "lat_p50_ms @ serve-mix (q.dump, transform)",
	"server.admission.*":                                  "correct_ratio, lat_p90_ms @ serve-mix (predicted 0 queued, 0 shed)",
	"server.tenant_cache.hit_ratio":                       "ops_per_s @ serve-mix",
	"server.reload_ms.p50":                                "lat_p90_ms @ serve-mix",
	"store.open_s":                                        "setup_s @ serve-mix",
	"parser.us, optimizer.us, shapes.us, interp.lower_us": "lat_p90_ms @ serve-mix (q.adhoc); setup_s @ docgen-batch, stream-scan",
	"xq.plan_cache.hit_ratio":                             "ops_per_s @ docgen-batch",
	"interp.eval_ms.<class>.p50":                          "ops_per_s, lat_p50_ms, lat_p90_ms @ serve-mix",
	"interp.eval_ms.<tier>.<shape>":                       "ops_per_s, lat_* @ stream-scan (a wide-fan-out fix moves flat, not grouped)",
	"interp.*_per_op":                                     "ops_per_s @ every workload (exact counts)",
	"xmltree.parse_reader_mb_per_s.*":                     "ops_per_s @ stream-scan (materialize); setup_s @ serve-mix",
	"xmltree.parse_string_mb_per_s.*":                     "none predicted at HEAD (no workload parses from a string); the gap to parse_reader is ROADMAP item 2",
	"xmltree.parse_allocs_per_element":                    "ops_per_s, peak_rss_mb @ stream-scan",
	"xmltree.serialize_mb_per_s":                          "lat_p50_ms @ serve-mix; ops_per_s @ docgen-batch",
	"xmltree.cow.break_ratio":                             "ops_per_s @ docgen-batch; transform latency @ serve-mix",
	"xmltree.live_heap_mb.<tier>":                         "peak_rss_mb @ stream-scan",
	"index.*":                                             "lat_p50_ms @ serve-mix; index.build_ms after reload -> lat_p90_ms",
	"project.*":                                           "ops_per_s @ stream-scan (projected tier)",
	"stream.*":                                            "ops_per_s @ stream-scan (full tier)",
	"update.*":                                            "transform latency @ serve-mix; ops_per_s @ docgen-batch (xqgen phase 2)",
	"awb.import_ms":                                       "setup_s @ docgen-batch",
	"awb.export_xml_ms.p50":                               "ops_per_s @ docgen-batch",
	"xqgen.*, docgen.serialize_ms.p50":                    "ops_per_s, lat_* @ docgen-batch",
	"native.*":                                            "none of the end-to-end metrics (native runs after the measured XQuery phase); the C3 contrast",
	"go.*_per_op":                                         "ops_per_s, peak_rss_mb @ every workload",
}
