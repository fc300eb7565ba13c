// Package interp evaluates parsed XQuery modules through a two-stage
// engine: a compile layer that lowers the (optimizer-processed) AST into
// closure-compiled expressions with slot-resolved variables and pre-bound
// function dispatch (see compile.go), and a runtime layer that executes
// the compiled program against per-evaluation frames.
//
// The evaluator runs in untyped mode — node atomization yields
// xs:untypedAtomic, as in the paper's schema-less AWB pipeline — and
// reproduces the draft-2004 construction semantics the paper documents:
// sequence flattening, leading-attribute folding (with an error for
// attributes after content), duplicate computed-attribute resolution
// (configurable to mimic the Galax bug), and boundary-whitespace stripping.
package interp

import (
	"context"
	"fmt"
	"strings"
	"time"

	"lopsided/internal/obs"
	"lopsided/internal/xdm"
	"lopsided/internal/xmltree"
	"lopsided/internal/xquery/ast"
	"lopsided/internal/xquery/funclib"
	"lopsided/internal/xquery/parser"
)

// DupAttrPolicy selects what happens when element construction produces two
// attribute nodes with the same name.
type DupAttrPolicy int

// Duplicate-attribute policies. The paper (T3b): "If two attribute nodes
// have the same name, only one should make it into the final element
// (though Galax did not honor this as of the time of writing)".
const (
	// DupAttrLastWins keeps the last duplicate (draft semantics; default).
	DupAttrLastWins DupAttrPolicy = iota
	// DupAttrFirstWins keeps the first duplicate (the other legal outcome
	// the paper shows: <el b="3" a="1"/> vs <el b="3" a="2"/>).
	DupAttrFirstWins
	// DupAttrGalaxBug keeps both, mimicking the Galax bug of the era.
	DupAttrGalaxBug
	// DupAttrError raises XQDY0025, the behavior the final 1.0 spec chose.
	DupAttrError
)

// Options configures an interpreter. Options are runtime configuration
// only: they never influence what the compile layer produces, which is
// what lets one compiled Program back many differently-configured Interps
// (the basis of the xq plan cache).
type Options struct {
	// Tracer receives structured engine events: fn:trace hits (live and
	// DCE-elided), FLWOR clause iterations, and user-function calls. Nil
	// disables tracing; hosts that only want the classic fn:trace output
	// can install obs.TraceFunc. The tracer may be called from any
	// evaluating goroutine and must be safe for concurrent use if the
	// Interp is.
	Tracer obs.Tracer
	// DocResolver resolves fn:doc URIs; nil makes fn:doc fail.
	DocResolver func(uri string) (*xmltree.Node, error)
	// MaxDepth bounds user-function recursion (default 8192). Superseded by
	// Limits.MaxDepth when that is set.
	MaxDepth int
	// DupAttr selects duplicate computed-attribute behavior.
	DupAttr DupAttrPolicy
	// Limits is the per-evaluation resource sandbox (see limits.go). The
	// zero value imposes no limits.
	Limits Limits
}

// Error is a positioned evaluation error carrying an XQuery error code.
type Error struct {
	Code string
	Msg  string
	Pos  ast.Pos
	// Static marks an error reported at compile time by static analysis
	// (the shapes pass proving an XPTY/XPST error inevitable) rather than
	// raised during evaluation. Hosts map the distinction onto their error
	// taxonomies: the CLI exits with the static-error status, the server
	// answers 400 instead of 422.
	Static bool
}

// Error implements the error interface; unlike the Galax of the paper's
// era, every dynamic error carries its source position.
func (e *Error) Error() string {
	return fmt.Sprintf("xquery: %d:%d: %s: %s", e.Pos.Line, e.Pos.Col, e.Code, e.Msg)
}

// Interp evaluates one compiled module: an immutable compiled Program plus
// the runtime Options for this instance.
//
// An Interp is safe for concurrent use: the compiled program is read-only
// after construction and every evaluation allocates its own frames, so any
// number of goroutines may call Eval (or Transform) on one Interp at once.
type Interp struct {
	prog *Program
	opts Options
}

// New compiles a parsed module and prepares an interpreter for it.
func New(mod *ast.Module, opts Options) (*Interp, error) {
	prog, err := NewProgram(mod, nil)
	if err != nil {
		return nil, err
	}
	return FromProgram(prog, opts), nil
}

// FromProgram wraps an already-compiled program with runtime options. The
// program may be shared: many Interps with different options can execute
// the same Program concurrently.
func FromProgram(prog *Program, opts Options) *Interp {
	if opts.Limits.MaxDepth > 0 {
		opts.MaxDepth = opts.Limits.MaxDepth
	}
	if opts.MaxDepth == 0 {
		opts.MaxDepth = 8192
	}
	return &Interp{prog: prog, opts: opts}
}

// Compile parses and prepares src in one step.
func Compile(src string, opts Options) (*Interp, error) {
	mod, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	return New(mod, opts)
}

// Module returns the underlying parsed module.
func (ip *Interp) Module() *ast.Module { return ip.prog.mod }

// Program returns the compiled program backing this interpreter.
func (ip *Interp) Program() *Program { return ip.prog }

// focus is the dynamic focus: context item, position, size.
type focus struct {
	item xdm.Item
	pos  int
	size int
	set  bool
}

// evalCtx carries the runtime state of one evaluation; it implements
// funclib.Context. Variables live in flat slot-indexed frames resolved at
// compile time — frame for the current scope's locals, globals for prolog
// and external variables — so the runtime never looks a variable up by
// name.
type evalCtx struct {
	ip *Interp
	// frame holds the current scope's local bindings (FLWOR/quantified/
	// typeswitch/try-catch variables and function parameters), indexed by
	// the slots the compiler assigned.
	frame []xdm.Sequence
	// globals holds prolog and externally-supplied variables, shared by
	// every scope of the evaluation; gset marks which slots are bound.
	globals []xdm.Sequence
	gset    []bool
	focus   focus
	depth   int
	// bud is the shared per-evaluation resource budget; nil = unlimited.
	bud *budget
	// tr is the structured tracer for this evaluation (cached off Options
	// so the hot path pays one nil check, not two pointer chases); nil
	// disables event emission.
	tr obs.Tracer
}

// FocusItem implements funclib.Context.
func (c *evalCtx) FocusItem() (xdm.Item, error) {
	if !c.focus.set {
		return nil, &xdm.Error{Code: "XPDY0002", Msg: "no context item (the '.' Galax calls $glx:dot is undefined here)"}
	}
	return c.focus.item, nil
}

// FocusPos implements funclib.Context.
func (c *evalCtx) FocusPos() (int, error) {
	if !c.focus.set {
		return 0, &xdm.Error{Code: "XPDY0002", Msg: "position() with no context item"}
	}
	return c.focus.pos, nil
}

// FocusSize implements funclib.Context.
func (c *evalCtx) FocusSize() (int, error) {
	if !c.focus.set {
		return 0, &xdm.Error{Code: "XPDY0002", Msg: "last() with no context item"}
	}
	return c.focus.size, nil
}

// Trace implements funclib.Context: one live fn:trace hit.
func (c *evalCtx) Trace(values []string) {
	if c.bud != nil {
		c.bud.traceHits++
	}
	if c.tr != nil {
		obs.Default().TraceEvents.Add(1)
		c.tr.Emit(obs.Event{Kind: obs.TraceHit, Values: values})
	}
}

// Doc implements funclib.Context.
func (c *evalCtx) Doc(uri string) (xdm.Sequence, error) {
	if c.ip.opts.DocResolver == nil {
		return nil, &xdm.Error{Code: "FODC0002", Msg: fmt.Sprintf("no document resolver configured for %q", uri)}
	}
	doc, err := c.ip.opts.DocResolver(uri)
	if err != nil {
		return nil, &xdm.Error{Code: "FODC0002", Msg: fmt.Sprintf("cannot retrieve %q: %v", uri, err)}
	}
	return xdm.Singleton(xdm.NewNode(doc)), nil
}

// Eval evaluates the module body under ctx (nil means background). ctxItem
// may be nil (no context item); vars pre-binds external variables by name
// (without '$'). Cancelling ctx (or passing one with a deadline) terminates
// the evaluation with a LOPS0001 error; the interpreter's Limits apply on
// top of ctx. st, when non-nil, is overwritten with what the evaluation
// consumed (steps, nodes, output bytes, wall time) next to the budgets it
// ran under; requesting stats forces resource counting even when no Limits
// are set (the counters then never trip).
//
// Eval is the panic-containment boundary required by the public xq API:
// any panic escaping the evaluator (including xmltree assertion panics) is
// converted into a coded LOPS0009 error instead of crashing the embedding
// process. Goroutine-stack overflow is the one failure Go does not let us
// recover; the parser's nesting limits and the recursion depth limit exist
// to keep evaluation away from it.
//
// Eval is safe to call concurrently on one Interp: each call builds its own
// frames and budget over the shared read-only program.
func (ip *Interp) Eval(ctx context.Context, ctxItem xdm.Item, vars map[string]xdm.Sequence, st *obs.EvalStats) (xdm.Sequence, error) {
	return ip.run(ctx, ctxItem, vars, st, nil)
}

// run is the one evaluation boundary behind Eval and Transform: it builds
// the evaluation context and budget, contains panics, reports the elided
// trace sites, binds external and prolog variables, then runs the query
// body — or, when pul is non-nil, the update statements and their one-pass
// apply (see update.go) — and finally fills st and flushes the elision
// count into the process registry.
func (ip *Interp) run(ctx context.Context, ctxItem xdm.Item, vars map[string]xdm.Sequence, st *obs.EvalStats, pul *pulState) (out xdm.Sequence, err error) {
	defer func() {
		if r := recover(); r != nil {
			out = nil
			boundary := "Eval"
			if pul != nil {
				boundary = "Transform"
			}
			err = &Error{Code: CodePanic, Msg: fmt.Sprintf("internal panic contained at %s boundary: %v", boundary, r)}
		}
	}()
	p := ip.prog
	c := &evalCtx{
		ip:      ip,
		bud:     newBudget(ctx, ip.opts.Limits, st != nil),
		tr:      ip.opts.Tracer,
		frame:   make([]xdm.Sequence, p.frameSize),
		globals: make([]xdm.Sequence, len(p.globalNames)),
		gset:    make([]bool, len(p.globalNames)),
	}
	if st != nil {
		start := time.Now()
		defer func() { ip.fillStats(st, c.bud, pul, time.Since(start)) }()
	}
	defer func() {
		if c.bud != nil && c.bud.shapeElided > 0 {
			obs.Default().ShapeChecksElided.Add(c.bud.shapeElided)
		}
	}()
	// Trace sites the optimizer's dead-code pass removed are reported
	// up front, once per evaluation: the host still learns the program
	// traced here, which Galax-era tracing never did.
	if c.tr != nil {
		for _, et := range p.elided {
			c.tr.Emit(obs.Event{Kind: obs.TraceHit, Line: et.P.Line, Col: et.P.Col,
				Values: et.Values, Elided: true})
		}
	}
	for name, val := range vars {
		if slot, ok := p.globalIdx[name]; ok {
			c.globals[slot] = val
			c.gset[slot] = true
		}
	}
	if ctxItem != nil {
		c.focus = focus{item: ctxItem, pos: 1, size: 1, set: true}
	}
	// Prolog variables evaluate in order, each seeing the external
	// variables plus the prolog variables before it.
	for _, ps := range p.prolog {
		if ps.init == nil {
			if !c.gset[ps.slot] {
				return nil, &Error{Code: "XPDY0002", Pos: ps.pos,
					Msg: fmt.Sprintf("external variable $%s not supplied", ps.name)}
			}
			continue
		}
		val, err := ps.init(c)
		if err != nil {
			return nil, err
		}
		c.globals[ps.slot] = val
		c.gset[ps.slot] = true
	}
	if pul != nil {
		return nil, c.applyStmts(pul)
	}
	return p.body(c)
}

// fillStats copies the evaluation's resource consumption and budgets into
// st, plus what an update program's apply did when pul is non-nil. Runs in
// a defer so stats are reported for failed (and even panicked) evaluations
// too.
func (ip *Interp) fillStats(st *obs.EvalStats, b *budget, pul *pulState, wall time.Duration) {
	l := ip.opts.Limits
	*st = obs.EvalStats{
		MaxSteps:       l.MaxSteps,
		MaxNodes:       l.MaxNodes,
		MaxOutputBytes: l.MaxOutputBytes,
		Timeout:        l.Timeout,
		Wall:           wall,
	}
	if b != nil {
		st.Steps, st.Nodes, st.OutputBytes = b.steps, b.nodes, b.bytes
		st.TraceEvents = b.traceHits
		st.ShapeChecksElided = b.shapeElided
	}
	if pul != nil {
		st.UpdatesApplied, st.SpineNodes = pul.applied.Applied, pul.applied.SpineNodes
	}
}

// SerializeSeq renders a sequence for display: nodes as XML, atomic values
// as their string values, items separated by single spaces.
func SerializeSeq(seq xdm.Sequence) string {
	parts := make([]string, len(seq))
	for i, it := range seq {
		if n, ok := xdm.IsNode(it); ok {
			parts[i] = n.String()
		} else {
			parts[i] = it.StringValue()
		}
	}
	return strings.Join(parts, " ")
}

// errAt converts any evaluation error into a positioned *Error.
func errAt(err error, pos ast.Pos) error {
	switch e := err.(type) {
	case *Error:
		return e // already positioned (inner frame wins)
	case *xdm.Error:
		return &Error{Code: e.Code, Msg: e.Msg, Pos: pos}
	case *funclib.ErrorValue:
		return &Error{Code: e.Code, Msg: e.Desc, Pos: pos}
	}
	return &Error{Code: "FOER0000", Msg: err.Error(), Pos: pos}
}

// errorParts extracts (code, description) from any evaluation error.
func errorParts(err error) (code, msg string) {
	switch e := err.(type) {
	case *Error:
		return e.Code, e.Msg
	case *xdm.Error:
		return e.Code, e.Msg
	case *funclib.ErrorValue:
		return e.Code, e.Desc
	}
	return "FOER0000", err.Error()
}
