// Package xq is the public face of the lopsided XQuery engine: compile an
// XQuery-subset program, optionally optimize it, and evaluate it against XML
// documents.
//
// The engine reproduces the draft-2004 semantics described in "Lopsided
// Little Languages" (Bloom, SIGMOD 2005): flat sequences, existential
// general comparisons, leading-attribute folding, untyped atomization, a
// variadic Galax-style fn:trace, and — behind options — the dead-code
// elimination behavior that made tracing so painful.
//
// Quick start:
//
//	q, err := xq.Compile(`for $b in /lib/book return $b/title`)
//	doc, err := xq.ParseXML(libraryXML)
//	out, err := q.Eval(context.Background(), doc)
//	fmt.Println(xq.Serialize(out))
//
// # Observability
//
// Compile and Eval share one functional-options vocabulary. Options given
// to Compile become the query's defaults; options given to Eval apply to
// that evaluation alone:
//
//	var st xq.EvalStats
//	tr := &xq.Collector{}
//	out, err := q.Eval(ctx, doc, xq.WithStats(&st), xq.WithTracer(tr))
//	fmt.Println(st.String())         // steps/nodes/bytes vs budgets, wall time
//	fmt.Println(q.Explain())         // the compiled plan, human-readable
//	fmt.Println(xq.MetricsSnapshot()) // process-wide counters + latency
//
// A Tracer receives structured events for compile phases, FLWOR clause
// iterations, user-function calls, and every fn:trace hit — including the
// sites dead-code elimination removed, which arrive flagged Elided instead
// of silently vanishing (the paper's Galax-era complaint).
package xq

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"lopsided/internal/obs"
	"lopsided/internal/xdm"
	"lopsided/internal/xmltree"
	"lopsided/internal/xmltree/index"
	"lopsided/internal/xquery/interp"
	"lopsided/internal/xquery/lexer"
	"lopsided/internal/xquery/optimizer"
	"lopsided/internal/xquery/parser"
	"lopsided/internal/xquery/shapes"
)

// Sequence is an XQuery result sequence (always flat).
type Sequence = xdm.Sequence

// Item is a single XQuery item: an atomic value or a node.
type Item = xdm.Item

// Node is an XML tree node.
type Node = xmltree.Node

// Re-exported atomic value constructors for building external variables.
type (
	// String is an xs:string value.
	String = xdm.String
	// Integer is an xs:integer value.
	Integer = xdm.Integer
	// Double is an xs:double value.
	Double = xdm.Double
	// Boolean is an xs:boolean value.
	Boolean = xdm.Boolean
)

// NewNodeItem wraps an XML node as a sequence item.
func NewNodeItem(n *Node) Item { return xdm.NewNode(n) }

// Singleton wraps one item as a sequence.
func Singleton(it Item) Sequence { return xdm.Singleton(it) }

// OptLevel selects optimizer effort.
type OptLevel = optimizer.Level

// Optimizer levels: O0 none, O1 constant folding, O2 adds dead-let
// elimination (the Galax pass from the paper's trace anecdote).
const (
	O0 = optimizer.O0
	O1 = optimizer.O1
	O2 = optimizer.O2
)

// DupAttrPolicy re-exports the duplicate-attribute policies.
type DupAttrPolicy = interp.DupAttrPolicy

// Duplicate computed-attribute policies (see the paper's T3b example).
const (
	DupAttrLastWins  = interp.DupAttrLastWins
	DupAttrFirstWins = interp.DupAttrFirstWins
	DupAttrGalaxBug  = interp.DupAttrGalaxBug
	DupAttrError     = interp.DupAttrError
)

// Limits bounds each evaluation of a query: wall-clock timeout, evaluation
// steps, constructed nodes, output bytes, and recursion depth. The zero
// value imposes no limits. See the README's "Error model & resource
// limits" section for the LOPS* code each exhausted budget raises.
type Limits = interp.Limits

// ---- Observability surface (re-exported from internal/obs) ----

// Tracer receives structured engine events; see the package comment. A
// Tracer installed on a Query that is evaluated concurrently must be safe
// for concurrent use.
type Tracer = obs.Tracer

// Event is one structured engine observation delivered to a Tracer.
type Event = obs.Event

// EventKind classifies an Event.
type EventKind = obs.EventKind

// Event kinds, re-exported for switch statements on Event.Kind.
const (
	PhaseBegin = obs.PhaseBegin
	PhaseEnd   = obs.PhaseEnd
	ClauseIter = obs.ClauseIter
	FuncCall   = obs.FuncCall
	TraceHit   = obs.TraceHit
)

// TraceFunc adapts a plain fn:trace consumer (the historical WithTracer
// callback shape) to the Tracer interface; only live fn:trace hits are
// forwarded.
type TraceFunc = obs.TraceFunc

// Collector is a Tracer that records every event, for tests and tools.
type Collector = obs.Collector

// NopTracer is the zero-allocation no-op Tracer. Installing it keeps every
// emission point live while discarding the events — the measured-overhead
// baseline for the tracing machinery.
var NopTracer = obs.Nop

// NewLogTracer returns a Tracer writing one line per event to w.
var NewLogTracer = obs.NewLogTracer

// EvalStats reports what one evaluation consumed next to the budgets it
// ran under; fill one via WithStats.
type EvalStats = obs.EvalStats

// MetricsSnapshot copies the engine's process-wide metrics: compile and
// eval counts, error and limit-hit counts, plan-cache hits/misses/
// evictions, and latency histograms. The same data is published through
// expvar under the key "lopsided_engine".
func MetricsSnapshot() obs.Snapshot { return obs.MetricsSnapshot() }

// ---- Options ----

type config struct {
	optLevel         OptLevel
	traceIsEffectful bool
	noAccessPaths    bool
	noShapes         bool
	tracer           Tracer
	docResolver      func(uri string) (*Node, error)
	dupAttr          DupAttrPolicy
	maxDepth         int
	limits           Limits
	ctx              context.Context
	stats            *EvalStats
	vars             map[string]Sequence
	// eagerApply makes Transform deep-copy instead of COW-clone (the
	// differential oracle's reference path; see WithEagerCopyApply).
	eagerApply bool
	// noProjection / noStreamEval disable the streaming tiers for queries
	// compiled via CompileStream (see WithProjection, WithStreamEval).
	noProjection bool
	noStreamEval bool
}

// newConfig returns the defaults with opts applied.
func newConfig(opts []Option) config {
	cfg := config{optLevel: O2, traceIsEffectful: true}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

func (c *config) interpOptions() interp.Options {
	return interp.Options{
		Tracer:      c.tracer,
		DocResolver: c.docResolver,
		MaxDepth:    c.maxDepth,
		DupAttr:     c.dupAttr,
		Limits:      c.limits,
	}
}

// Option configures compilation and evaluation. One vocabulary serves
// both: options passed to Compile become the query's defaults, and options
// passed to Query.Eval override them for that single evaluation.
// Compile-only options (WithOptLevel, WithTraceEffectful) have no effect
// when passed to Eval — the plan is already built.
type Option func(*config)

// WithOptLevel sets the optimizer level (default O2). Compile-time only.
func WithOptLevel(l OptLevel) Option { return func(c *config) { c.optLevel = l } }

// WithTraceEffectful controls whether fn:trace is protected from dead-code
// elimination. True (the default) is the post-fix Galax behavior; false
// reproduces the bug that silently swallowed the paper's tracing.
// Compile-time only.
func WithTraceEffectful(on bool) Option { return func(c *config) { c.traceIsEffectful = on } }

// WithShapes controls the static shape & cardinality analysis (default
// true): a forward inference pass over the optimized AST whose facts let
// dead-let elimination accept shape-proven-total expressions, access-path
// planning widen predicates proven non-positional, the compiled plan elide
// provably redundant runtime checks (counted in EvalStats.ShapeChecksElided),
// EXPLAIN annotate every plan node with its inferred shape, and inevitable
// type errors (XPTY0004) surface at compile time as static errors (check
// IsStaticError). Disabling it reproduces the pre-shapes engine exactly —
// the differential oracle runs the off configuration to prove shapes-on ≡
// shapes-off semantics. Compile-time only.
func WithShapes(on bool) Option { return func(c *config) { c.noShapes = !on } }

// WithAccessPaths controls access-path planning at O1+ (default true):
// rewriting `//name` and `[@attr = 'v']` shapes onto structural/value
// indexes of frozen trees, with tree-walk fallback when no index is
// available. Disabling it forces every step to walk — the differential
// oracle uses the off configuration to prove indexed ≡ unindexed
// semantics. Compile-time only.
func WithAccessPaths(on bool) Option { return func(c *config) { c.noAccessPaths = !on } }

// WithTracer installs the structured event consumer. To reproduce the
// classic fn:trace-only callback, wrap it: WithTracer(xq.TraceFunc(f)).
func WithTracer(t Tracer) Option { return func(c *config) { c.tracer = t } }

// WithStats arranges for st to be overwritten with the evaluation's
// resource consumption (steps, nodes, output bytes, wall time, trace
// events, plan-cache provenance) next to the budgets it ran under.
// Requesting stats turns on resource counting even when no Limits are set.
func WithStats(st *EvalStats) Option { return func(c *config) { c.stats = st } }

// WithVars binds external variables (names without '$') for the
// evaluation.
func WithVars(vars map[string]Sequence) Option { return func(c *config) { c.vars = vars } }

// WithDocResolver installs the fn:doc resolver.
func WithDocResolver(f func(uri string) (*Node, error)) Option {
	return func(c *config) { c.docResolver = f }
}

// WithDupAttrPolicy selects duplicate computed-attribute behavior.
func WithDupAttrPolicy(p DupAttrPolicy) Option { return func(c *config) { c.dupAttr = p } }

// WithMaxDepth bounds user-function recursion.
func WithMaxDepth(n int) Option { return func(c *config) { c.maxDepth = n } }

// WithLimits installs the evaluation sandbox: every Eval of the query runs
// under the given resource budgets and returns a coded LOPS* error when one
// is exhausted, instead of hanging or exhausting host memory.
func WithLimits(l Limits) Option { return func(c *config) { c.limits = l } }

// WithTimeout is shorthand for WithLimits on the wall-clock budget alone.
func WithTimeout(d time.Duration) Option { return func(c *config) { c.limits.Timeout = d } }

// WithProjection controls the path-projection tier of streaming evaluation
// (default true): when a StreamQuery's static analysis produced a path set,
// EvalReader parses only the subtrees the query can touch. Disabling it
// forces a full parse — the differential oracle runs the off configuration
// to prove projected ≡ materialized semantics.
func WithProjection(on bool) Option { return func(c *config) { c.noProjection = !on } }

// WithStreamEval controls the pure-streaming tier (default true): when the
// classifier recognized the query's downward-axis fragment, EvalReader
// answers straight from the token stream with O(depth) memory and no tree.
// Disabling it falls back to the projection tier (or materialization).
func WithStreamEval(on bool) Option { return func(c *config) { c.noStreamEval = !on } }

// ---- Query ----

// Query is a compiled, optimized XQuery program with an explicit
// compile-once / evaluate-many contract: compilation (parse, optimize,
// closure-lowering) happens once, and the compiled plan is immutable
// afterward.
//
// A *Query is safe for concurrent use. Any number of goroutines may call
// Eval on one Query simultaneously: every evaluation allocates its own
// variable frames and resource budget over the shared read-only plan. The
// only shared mutable touch points are the callbacks the caller installed
// (WithTracer, WithDocResolver), which must themselves be safe for
// concurrent invocation.
type Query struct {
	prog *interp.Program
	ip   *interp.Interp
	cfg  config
	ctx  context.Context
	// Stats reports what the optimizer did at compile time.
	Stats optimizer.Stats
	// cacheHit records whether this query's plan came out of the plan
	// cache, reported through EvalStats.PlanCacheHit.
	cacheHit bool
}

// compileModule runs parse → optimize → shapes → lower with metrics and
// (when a tracer is configured) phase events. It is the one compilation
// path behind Compile, CompileUpdate and both cached variants; update
// selects the update-program grammar.
func compileModule(src string, cfg config, update bool) (*interp.Program, optimizer.Stats, error) {
	obs.PublishExpvar()
	reg := obs.Default()
	reg.Compiles.Add(1)
	start := time.Now()
	defer func() { reg.CompileLatency.Observe(time.Since(start)) }()

	phase := func(name string, begin bool, since time.Time) {
		if cfg.tracer == nil {
			return
		}
		if begin {
			cfg.tracer.Emit(obs.Event{Kind: obs.PhaseBegin, Name: name})
		} else {
			cfg.tracer.Emit(obs.Event{Kind: obs.PhaseEnd, Name: name, Elapsed: time.Since(since)})
		}
	}

	t := time.Now()
	phase("parse", true, t)
	parse := parser.Parse
	if update {
		parse = parser.ParseUpdate
	}
	mod, err := parse(src)
	phase("parse", false, t)
	if err != nil {
		reg.CompileErrors.Add(1)
		return nil, optimizer.Stats{}, err
	}

	t = time.Now()
	phase("optimize", true, t)
	stats := optimizer.Optimize(mod, optimizer.Options{
		Level:              cfg.optLevel,
		TraceIsEffectful:   cfg.traceIsEffectful,
		DisableAccessPaths: cfg.noAccessPaths,
		DisableShapes:      cfg.noShapes,
	})
	phase("optimize", false, t)

	// Shape inference runs between optimize and lower so the compiler can
	// install its check-elision fast paths over the same AST. Update
	// programs get shape facts for check elision and EXPLAIN only:
	// statements run conditionally by nature, so inference never produces
	// static diagnostics for them.
	var info *shapes.Info
	if !cfg.noShapes {
		t = time.Now()
		phase("shapes", true, t)
		info = shapes.InferModule(mod)
		phase("shapes", false, t)
	}

	t = time.Now()
	phase("compile", true, t)
	prog, err := interp.NewProgram(mod, info)
	phase("compile", false, t)
	if err != nil {
		reg.CompileErrors.Add(1)
		return nil, optimizer.Stats{}, err
	}
	// Inevitable-error diagnostics are raised only after lowering succeeds,
	// so the historical compile errors (XQST0034 duplicate function,
	// XQST0040 duplicate attribute, …) keep winning over the new static
	// type errors.
	if info != nil {
		if d := info.FirstDiag(); d != nil {
			reg.CompileErrors.Add(1)
			return nil, optimizer.Stats{}, &interp.Error{Code: d.Code, Msg: d.Msg, Pos: d.P, Static: true}
		}
	}
	return prog, stats, nil
}

// Compile parses, optimizes, and compiles an XQuery program: the AST is
// lowered once into a closure-compiled plan with slot-resolved variables
// and pre-bound function dispatch, so repeated evaluations pay no
// per-evaluation analysis cost.
func Compile(src string, opts ...Option) (*Query, error) { return compile(src, opts, false) }

// compile is Compile and CompileUpdate without the plan cache.
func compile(src string, opts []Option, update bool) (*Query, error) {
	cfg := newConfig(opts)
	prog, stats, err := compileModule(src, cfg, update)
	if err != nil {
		return nil, err
	}
	return newQuery(prog, stats, cfg), nil
}

// newQuery wraps a compiled (possibly shared) program with this caller's
// runtime configuration.
func newQuery(prog *interp.Program, stats optimizer.Stats, cfg config) *Query {
	q := &Query{
		prog:  prog,
		ip:    interp.FromProgram(prog, cfg.interpOptions()),
		cfg:   cfg,
		ctx:   cfg.ctx,
		Stats: stats,
	}
	if q.ctx == nil {
		q.ctx = context.Background()
	}
	return q
}

// MustCompile is Compile that panics on error, for static programs.
func MustCompile(src string, opts ...Option) *Query {
	q, err := Compile(src, opts...)
	if err != nil {
		panic(err)
	}
	return q
}

// Eval evaluates the query. ctx may be nil (background); doc, when
// non-nil, becomes the context item. Options override the query's
// compile-time defaults for this evaluation only — the common ones are
// WithVars (external variables), WithStats, WithTracer, and WithLimits.
//
// Cancelling ctx (or passing one with a deadline) terminates the
// evaluation with a LOPS0001 error; compile-time Limits still apply. The
// evaluation never panics — internal engine panics are contained at this
// boundary and surface as LOPS0009 errors — so a server can evaluate
// untrusted queries without crashing.
func (q *Query) Eval(ctx context.Context, doc *Node, opts ...Option) (Sequence, error) {
	cfg := q.configure(opts)
	if ctx == nil {
		ctx = q.ctx
	}
	if q.prog.IsUpdate() {
		return nil, &interp.Error{Code: "XPST0003",
			Msg: "Eval called on an update program (use Transform)"}
	}
	return q.eval(ctx, q.runtime(cfg, opts), cfg, doc)
}

// configure returns the query's defaults with one call's opts applied. With
// no opts it returns the defaults themselves, which callers only read, so
// the common call copies (and heap-allocates) no config.
func (q *Query) configure(opts []Option) *config {
	if len(opts) == 0 {
		return &q.cfg
	}
	cfg := q.cfg
	for _, o := range opts {
		o(&cfg)
	}
	return &cfg
}

// runtime returns the interpreter for one call configured by cfg from
// opts: per-call overrides get a fresh wrapper over the shared immutable
// plan; the no-option fast path reuses the prebuilt one.
func (q *Query) runtime(cfg *config, opts []Option) *interp.Interp {
	if len(opts) == 0 {
		return q.ip
	}
	return interp.FromProgram(q.prog, cfg.interpOptions())
}

// eval runs the compiled query body against doc (nil: no context item).
func (q *Query) eval(ctx context.Context, ip *interp.Interp, cfg *config, doc *Node) (Sequence, error) {
	var it Item
	if doc != nil {
		it = xdm.NewNode(doc)
	}
	var out Sequence
	err := q.observe(cfg, "eval", func() (err error) {
		out, err = ip.Eval(ctx, it, cfg.vars, cfg.stats)
		return err
	})
	return out, err
}

// observe runs one evaluation under the observability contract every
// entry point shares (Eval, Transform, and each EvalReader tier, parse
// failures included): a tracer phase around run; the registry's eval
// count, latency, error and limit-hit counters; and, when stats were
// requested, a reset stats struct for run to fill, completed afterwards
// with the wall time, the plan-cache provenance and the copy-on-write,
// pool and index deltas around run.
func (q *Query) observe(cfg *config, phase string, run func() error) error {
	if cfg.tracer != nil {
		cfg.tracer.Emit(obs.Event{Kind: obs.PhaseBegin, Name: phase})
	}
	// Sharing/pool/index counters are process-wide, so per-eval numbers are
	// deltas around the call; concurrent evaluations bleed into each
	// other's deltas (the numbers stay indicative, not exact).
	var before obs.LayerStats
	if cfg.stats != nil {
		*cfg.stats = EvalStats{}
		before = layerStats()
	}
	start := time.Now()
	err := run()
	wall := time.Since(start)
	if cfg.tracer != nil {
		cfg.tracer.Emit(obs.Event{Kind: obs.PhaseEnd, Name: phase, Elapsed: wall})
	}
	reg := obs.Default()
	reg.Evals.Add(1)
	reg.EvalLatency.Observe(wall)
	if err != nil {
		reg.EvalErrors.Add(1)
		if IsLimitError(err) {
			reg.LimitHits.Add(1)
		}
	}
	if st := cfg.stats; st != nil {
		after := layerStats()
		st.Wall = wall
		st.PlanCacheHit = q.cacheHit
		st.CowClones = after.Sharing.CowClones - before.Sharing.CowClones
		st.CowBreaks = after.Sharing.CowBreaks - before.Sharing.CowBreaks
		st.PoolHits = after.Sharing.PoolHits - before.Sharing.PoolHits
		st.PoolMisses = after.Sharing.PoolMisses - before.Sharing.PoolMisses
		st.IndexHits = after.Index.Hits - before.Index.Hits
		st.IndexPrunes = after.Index.Prunes - before.Index.Prunes
		st.IndexFallbacks = after.Index.Fallbacks - before.Index.Fallbacks
		st.IndexBuilds = after.Index.Builds - before.Index.Builds
	}
	return err
}

// layerStats reads the tree, index and streaming-parse layers' counters in
// the obs shape. Registered as the obs layer probe (those packages cannot
// import obs) and used for the per-eval deltas above.
func layerStats() obs.LayerStats {
	cow := xmltree.Stats()
	gets, misses := xmltree.PoolCounters()
	ix := index.Stats()
	sc := xmltree.StreamParseStats()
	return obs.LayerStats{
		Sharing: obs.SharingStats{
			CowClones:        cow.Clones,
			CowBreaks:        cow.Breaks,
			CowDeferredNodes: cow.DeferredNodes,
			PoolHits:         gets - misses,
			PoolMisses:       misses,
		},
		Index: obs.IndexStats{
			Builds:     ix.Builds,
			BuildNanos: ix.BuildNanos,
			Hits:       ix.Hits,
			Prunes:     ix.Prunes,
			Fallbacks:  ix.Fallbacks,
		},
		Stream: obs.StreamStats{
			ReaderParses:     sc.ReaderParses,
			ProjectedParses:  sc.ProjectedParses,
			BytesScanned:     sc.BytesScanned,
			ElementsRetained: sc.ElementsRetained,
			ElementsPruned:   sc.ElementsPruned,
		},
	}
}

func init() { obs.SetLayerProbe(layerStats) }

// EvalString evaluates and serializes the result (nodes as XML, atomics as
// string values, space-separated).
func (q *Query) EvalString(ctx context.Context, doc *Node, opts ...Option) (string, error) {
	out, err := q.Eval(ctx, doc, opts...)
	if err != nil {
		return "", err
	}
	return Serialize(out), nil
}

// Explain returns a human-readable dump of the compiled plan: what the
// optimizer did, every global/local slot assignment, pre-bound function
// dispatch, FLWOR clause shapes, and the fn:trace sites dead-code
// elimination removed. This is the `-explain` output of xqrun and
// awbquery.
func (q *Query) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "optimizer: level O%d, folded-constants=%d eliminated-lets=%d elided-traces=%d\n",
		int(q.cfg.optLevel), q.Stats.FoldedConstants, q.Stats.EliminatedLets, q.Stats.ElidedTraces)
	if n := q.Stats.IndexScans + q.Stats.SynopsisPrunes + q.Stats.TreeWalks; n > 0 {
		fmt.Fprintf(&b, "access paths: index-scans=%d synopsis-prunes=%d tree-walks=%d folded-predicates=%d\n",
			q.Stats.IndexScans, q.Stats.SynopsisPrunes, q.Stats.TreeWalks, q.Stats.FoldedPredicates)
	}
	if n := q.Stats.ShapeProvenTotal + q.Stats.ShapeWidenedPredicates; n > 0 {
		fmt.Fprintf(&b, "shape facts used: proven-total-lets=%d widened-predicates=%d\n",
			q.Stats.ShapeProvenTotal, q.Stats.ShapeWidenedPredicates)
	}
	b.WriteString(q.prog.Explain())
	return b.String()
}

// ParseXML parses an XML document.
func ParseXML(src string) (*Node, error) { return xmltree.Parse(src) }

// ParseXMLReader parses an XML document incrementally from r: the input is
// tokenized as it streams in rather than being buffered into one string
// first, so files and network bodies avoid a second in-memory copy. It
// accepts exactly the language ParseXML accepts and reports identical
// errors.
func ParseXMLReader(r io.Reader) (*Node, error) { return xmltree.ParseReader(r) }

// Freeze declares the tree rooted at n immutable, making it eligible for
// structural/value indexing: the first indexed probe against a frozen tree
// builds its index once, and every later evaluation — from any goroutine,
// against any lazy clone source — shares it. The caller promises not to
// mutate the tree afterwards (the same contract lazy cloning imposes on
// clone sources). Trees that are never frozen still evaluate correctly;
// their steps simply walk. It returns n for chaining.
func Freeze(n *Node) *Node { return xmltree.Freeze(n) }

// Serialize renders a result sequence: nodes as XML, atomics as string
// values, items separated by spaces.
func Serialize(seq Sequence) string { return interp.SerializeSeq(seq) }

// ---- Error model ----

// EvalError is a positioned evaluation error carrying an XQuery error code
// (XP*/FO*/XQ* spec codes, or the engine's LOPS* sandbox codes).
type EvalError = interp.Error

// ErrorCode extracts the XQuery error code from any error this package
// returns ("XPST0008", "LOPS0001", …), or "" for uncoded errors such as
// I/O failures from a document resolver. Lex/parse failures report their
// specific static code when they carry one (for example XQST0040 for a
// duplicate literal attribute) and the generic syntax code XPST0003
// otherwise.
func ErrorCode(err error) string {
	switch e := err.(type) {
	case *interp.Error:
		return e.Code
	case *xdm.Error:
		return e.Code
	case *lexer.Error:
		if e.Code != "" {
			return e.Code
		}
		return "XPST0003"
	}
	return ""
}

// IsLimitError reports whether err is a sandbox resource-limit error —
// timeout/cancellation (LOPS0001), step budget (LOPS0002), recursion depth
// (LOPS0003), node budget (LOPS0004) or output budget (LOPS0005).
func IsLimitError(err error) bool { return interp.IsLimitCode(ErrorCode(err)) }

// IsStaticError reports whether err is a compile-time static-analysis error:
// the shapes pass proved the query must raise this code (e.g. XPTY0004) on
// every evaluation, so Compile rejects it up front. Hosts give these the
// "bad query" treatment (CLI static exit status, server HTTP 400) rather
// than the runtime-error one.
func IsStaticError(err error) bool {
	e, ok := err.(*interp.Error)
	return ok && e.Static
}
