package xq

// Streaming evaluation: compile a query once with CompileStream and evaluate
// it against documents read incrementally from an io.Reader. Two static
// analyses run at compile time and decide, per evaluation, how much of the
// document ever exists in memory:
//
//   - the pure-streaming classifier (internal/xquery/stream) recognizes the
//     downward-axis aggregate/serialize fragment and answers it straight from
//     the token stream with O(depth) memory;
//   - the path-projection analysis (internal/xquery/project) computes the
//     root-anchored paths the query can touch, so the parse materializes only
//     matching subtrees plus their ancestor shells.
//
// Both analyses are conservative: when either declines, EvalReader falls back
// to a full materializing parse, so an analysis gap can cost memory but never
// correctness. The fallback order is full-stream → projected → materialize.

import (
	"context"
	"fmt"
	"io"
	"strings"

	"lopsided/internal/xmltree"
	"lopsided/internal/xquery/interp"
	"lopsided/internal/xquery/project"
	"lopsided/internal/xquery/stream"
)

// StreamMode identifies which streaming tier served (or would serve) an
// evaluation.
type StreamMode int

// The streaming tiers, strongest first.
const (
	// StreamMaterialize parses the whole document into a tree, exactly like
	// ParseXMLReader + Eval.
	StreamMaterialize StreamMode = iota
	// StreamProjected parses only the projection's path set: matching
	// subtrees are materialized, ancestors are retained as shells, and
	// everything else is pruned during the parse.
	StreamProjected
	// StreamFull answers from the token stream without building a tree.
	StreamFull
)

// String returns the mode name as EvalStats and EXPLAIN print it.
func (m StreamMode) String() string {
	switch m {
	case StreamFull:
		return "full-stream"
	case StreamProjected:
		return "projected"
	}
	return "materialize"
}

// StreamQuery is a compiled query plus the static streaming verdicts. It
// embeds *Query, so everything a Query does (Eval against a parsed tree,
// Explain, …) still works; EvalReader adds the streaming entry point.
//
// A *StreamQuery is safe for concurrent use, like the Query it embeds.
type StreamQuery struct {
	*Query
	plan       *stream.Plan
	planReason string
	proj       *xmltree.Projection
	projReason string
}

// CompileStream compiles src like Compile and additionally runs the two
// streaming analyses over the optimized program. The analyses never fail
// compilation: a query outside their fragments compiles fine and simply
// evaluates in a lower tier (see Mode and Explain for the verdicts).
func CompileStream(src string, opts ...Option) (*StreamQuery, error) {
	q, err := Compile(src, opts...)
	if err != nil {
		return nil, err
	}
	sq := &StreamQuery{Query: q}
	if q.prog.IsUpdate() {
		sq.planReason = "update program"
		sq.projReason = "update program"
		return sq, nil
	}
	mod := q.prog.Module()
	sq.plan, sq.planReason = stream.Classify(mod)
	res := project.Analyze(mod)
	sq.proj, sq.projReason = res.Proj, res.Reason
	return sq, nil
}

// Mode reports the tier EvalReader would use under the query's compile-time
// options (per-eval options can change it; see EvalReader).
func (q *StreamQuery) Mode() StreamMode { return q.mode(&q.cfg) }

// mode resolves the tier for one evaluation's effective config. Full
// streaming additionally requires that no resource limits are configured:
// the SAX evaluator cannot charge step/node/output budgets, and silently
// ignoring a sandbox would be worse than materializing.
func (q *StreamQuery) mode(cfg *config) StreamMode {
	if !cfg.noStreamEval && q.plan != nil && cfg.limits == (Limits{}) {
		return StreamFull
	}
	if !cfg.noProjection && q.proj != nil && !q.proj.EverythingNeeded() {
		return StreamProjected
	}
	return StreamMaterialize
}

// EvalReader evaluates the query against a document read from r, choosing
// the strongest applicable streaming tier, and returns the serialized result
// (identical to EvalString over the parsed document). Options override the
// query's defaults for this evaluation alone, exactly like Eval; WithStats
// additionally fills StreamMode, BytesScanned, and NodesPruned.
func (q *StreamQuery) EvalReader(ctx context.Context, r io.Reader, opts ...Option) (string, error) {
	cfg := q.configure(opts)
	if ctx == nil {
		ctx = q.ctx
	}
	if q.prog.IsUpdate() {
		return "", &interp.Error{Code: "XPST0003",
			Msg: "EvalReader called on an update program (use Transform)"}
	}
	mode := q.mode(cfg)
	var (
		out             string
		scanned, pruned int64
		err             error
	)
	if mode == StreamFull {
		err = q.observe(cfg, "eval", func() (err error) {
			var sst stream.Stats
			out, sst, err = q.plan.Run(r, xmltree.ParseOptions{})
			scanned = sst.BytesScanned
			return err
		})
	} else {
		out, scanned, pruned, err = q.evalTree(ctx, cfg, opts, mode, r)
	}
	if cfg.stats != nil {
		cfg.stats.StreamMode = mode.String()
		cfg.stats.BytesScanned = scanned
		cfg.stats.NodesPruned = pruned
	}
	return out, err
}

// evalTree parses r — pruned to the projection on the projected tier — and
// evaluates the query against the tree. A malformed document counts as a
// failed evaluation like any other. The tree lives for this one evaluation,
// so it stays unfrozen: indexing it would cost a full DocIndex build to
// answer a single lookup the tree walk answers.
func (q *StreamQuery) evalTree(ctx context.Context, cfg *config, opts []Option, mode StreamMode, r io.Reader) (out string, scanned, pruned int64, err error) {
	var doc *Node
	cr := &countingReader{r: r}
	if mode == StreamProjected {
		var pst xmltree.ProjStats
		doc, pst, err = xmltree.ParseProjectedUnfrozen(cr, q.proj, xmltree.ParseOptions{})
		scanned, pruned = pst.BytesRead, pst.ElementsPruned
	} else {
		doc, err = xmltree.ParseReader(cr)
		scanned = cr.n
	}
	if err != nil {
		// A failed projected parse reports zero stats; the reader still
		// knows how far the scan got.
		return "", cr.n, pruned, q.observe(cfg, "eval", func() error { return err })
	}
	seq, err := q.eval(ctx, q.runtime(cfg, opts), cfg, doc)
	if err != nil {
		return "", scanned, pruned, err
	}
	return Serialize(seq), scanned, pruned, nil
}

// countingReader counts the bytes a tree parse consumed, so the materialize
// tier, and either tree tier's failed parse, report scanned-bytes like the
// full-stream tier.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// ParseProjected parses a document from r pruned to this query's projection
// path set: subtrees the query can touch are materialized, their ancestors
// are retained as shells, everything else is dropped during the parse. The
// returned tree is frozen and evaluates identically to the full parse for
// this query. When the analysis produced no projection, the full document
// is parsed.
func (q *StreamQuery) ParseProjected(r io.Reader) (*Node, error) {
	if q.proj == nil {
		doc, err := xmltree.ParseReader(r)
		if err != nil {
			return nil, err
		}
		return xmltree.Freeze(doc), nil
	}
	return xmltree.ParseProjected(r, q.proj)
}

// Explain extends the embedded Query's plan dump with the streaming
// verdicts: the resolved tier, the pure-streaming plan (or why the
// classifier declined), and the projection path set (or why the analysis
// bailed).
func (q *StreamQuery) Explain() string {
	var b strings.Builder
	b.WriteString(q.Query.Explain())
	if !strings.HasSuffix(b.String(), "\n") {
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "streaming: mode=%s\n", q.Mode())
	if q.plan != nil {
		fmt.Fprintf(&b, "  stream plan: %s\n", q.plan)
	} else {
		fmt.Fprintf(&b, "  stream plan: none (%s)\n", q.planReason)
	}
	switch {
	case q.proj == nil:
		fmt.Fprintf(&b, "  projection: none (%s)\n", q.projReason)
	case q.proj.EverythingNeeded():
		fmt.Fprintf(&b, "  projection: everything needed\n")
	default:
		fmt.Fprintf(&b, "  projection: %s\n", q.proj)
	}
	return b.String()
}
