package optimizer

// Access-path planning: a rewrite pass over path expressions that decides,
// per step, how the runtime should produce the step's node set — an index
// scan, a synopsis prune, or the default tree walk — and records the
// decision (with its rationale) on the step for EXPLAIN.
//
// The pass also performs the one structural rewrite that unlocks the big
// win: a `descendant-or-self::node()` step (the expansion of `//`) followed
// by a `child::name` step collapses into a single `descendant::name` step,
// which the element-name index answers in O(result) instead of O(tree).
// The fusion is semantics-preserving only under tight conditions:
//
//   - the descendant-or-self step must carry no predicates, and
//   - the child step's predicates must be empty, consist of exactly one
//     foldable `[@attr = 'literal']` predicate, or (shapes on) consist of
//     exactly one predicate the shape analysis proves non-positional.
//
// Positional predicates block fusion because `a//b[2]` counts positions per
// parent while `descendant::b[2]` counts globally — a divergence the
// differential oracle would (and did, at design time) catch. The shape
// widening admits exactly the predicates where that hazard is absent: the
// predicate's value can never be a singleton number (so predicateHolds
// takes the effective-boolean branch on both plans) and the predicate never
// reads the focus position via fn:position or fn:last. The context ITEM is
// the candidate node itself under either grouping, so everything else the
// predicate can observe is identical.
//
// Decisions here are advisory toward an equivalent plan: the interpreter
// falls back to the tree walk whenever the context tree has no usable index,
// so planning never changes semantics, only cost.

import (
	"strings"

	"lopsided/internal/xdm"
	"lopsided/internal/xquery/ast"
	"lopsided/internal/xquery/shapes"
)

// planPath assigns access paths to the steps of p, fusing //-pairs first.
// Called for every rewritten PathExpr at O1+ unless access paths are
// disabled.
func (o *optimizer) planPath(p *ast.PathExpr) {
	// Leading-`//` fusion: RootSlashSlash expands to "all nodes of the
	// document, then step 1". When step 1 is a fusable child::name, the pair
	// is exactly descendant::name from the document root.
	if p.Root == ast.RootSlashSlash && len(p.Steps) > 0 {
		if fused, ok := o.fuseChild(p.Steps[0]); ok {
			p.Root = ast.RootSlash
			p.Steps[0] = fused
		}
	}
	// Interior `//` fusion: descendant-or-self::node() + fusable child::name.
	steps := p.Steps[:0]
	for i := 0; i < len(p.Steps); i++ {
		s := p.Steps[i]
		if isDescOrSelfNode(s) && i+1 < len(p.Steps) {
			if fused, ok := o.fuseChild(p.Steps[i+1]); ok {
				steps = append(steps, fused)
				i++
				continue
			}
		}
		steps = append(steps, s)
	}
	p.Steps = steps
	for i := range p.Steps {
		if p.Steps[i].Access == nil {
			o.planStep(&p.Steps[i])
		}
	}
}

// fuseChild turns a fusable child::name step into the descendant::name step
// that replaces a (descendant-or-self::node(), child::name) pair, folding a
// single [@attr = 'v'] predicate into the probe when present. Only the
// child axis fuses: `//@year` is (descendant-or-self::node(),
// attribute::year), and rewriting it to descendant::year would look for
// elements instead of attributes.
func (o *optimizer) fuseChild(s ast.Step) (ast.Step, bool) {
	name, ok := plainName(s)
	if !ok || s.Axis != ast.AxisChild {
		return s, false
	}
	ap := &ast.AccessPath{Kind: ast.AccessIndexScan, Fused: true}
	switch {
	case len(s.Preds) == 0:
		ap.Reason = "fused // into descendant::" + name
	case len(s.Preds) == 1:
		attr, val, foldable := foldableAttrPred(s.Preds[0])
		if foldable {
			ap.AttrName, ap.AttrValue = attr, val
			ap.Reason = "fused // into descendant::" + name + ", folded [@" + attr + " = '" + val + "']"
			s.Preds = nil
			o.stats.FoldedPredicates++
			break
		}
		if !o.shapeNonPositional(s.Preds[0]) {
			return s, false
		}
		// The predicate stays on the step (applied after the index probe or
		// the walk fallback); only the grouping changed, which the shape
		// proof shows the predicate cannot observe.
		ap.Reason = "fused // into descendant::" + name + ", predicate shape-proven non-positional"
		o.stats.ShapeWidenedPredicates++
	default:
		return s, false
	}
	s.Axis = ast.AxisDescendant
	s.Access = ap
	o.stats.IndexScans++
	return s, true
}

// shapeNonPositional reports whether the shape analysis proves a predicate
// can never act positionally AND can never raise: its value holds no
// numeric atomic (so a singleton-number positional test is impossible), it
// never calls fn:position or fn:last, and evaluation is total. The totality
// leg matters because fusion reorders predicate evaluation (per-parent
// groups become one global document-order scan); a predicate that raises
// different codes on different nodes would surface a different first error
// across plans. A total predicate can at worst make the effective-boolean
// test raise FORG0006 — the same code under either order. A path made only
// of predicate-free axis steps gets the same guarantee structurally: from
// the node focus a fused step supplies, axis steps produce only nodes and
// raise nothing, and an all-node value is EBV-safe. Disabled configurations
// refuse every predicate, reproducing the pre-shapes plans.
func (o *optimizer) shapeNonPositional(pred ast.Expr) bool {
	if o.opts.DisableShapes {
		return false
	}
	sh := shapes.InferExpr(pred, shapes.Scope{
		InScope:    func(name string) bool { return o.scope[name] > 0 },
		IsUserFunc: func(name string) bool { return o.userFuncs[name] },
		HasFocus:   true,
	})
	if sh.Atomic&shapes.ANum != 0 {
		return false
	}
	if !sh.Total && !pureAxisPath(pred) {
		return false
	}
	return !usesFocusPosition(pred)
}

// pureAxisPath recognizes a path consisting solely of predicate-free,
// primary-free axis steps — total whenever the context item is a node,
// which fuseChild's candidate steps guarantee.
func pureAxisPath(e ast.Expr) bool {
	p, ok := e.(*ast.PathExpr)
	if !ok {
		return false
	}
	for _, s := range p.Steps {
		if s.Primary != nil || len(s.Preds) != 0 {
			return false
		}
	}
	return true
}

// usesFocusPosition reports whether e contains a call to fn:position or
// fn:last anywhere — including inside nested predicates, where the call is
// harmless (it sees its own focus); the coarse answer only costs a fusion.
func usesFocusPosition(e ast.Expr) bool {
	found := false
	walk(e, func(x ast.Expr) bool {
		if call, ok := x.(*ast.FunctionCall); ok {
			switch call.Name {
			case "position", "fn:position", "last", "fn:last":
				found = true
				return false
			}
		}
		return !found
	})
	return found
}

// planStep records the access-path decision for one unfused step.
func (o *optimizer) planStep(s *ast.Step) {
	if s.Primary != nil {
		return // filter step: no axis to access
	}
	name, ok := plainName(*s)
	if !ok {
		s.Access = &ast.AccessPath{Kind: ast.AccessTreeWalk, Reason: "wildcard or kind test"}
		o.stats.TreeWalks++
		return
	}
	switch s.Axis {
	case ast.AxisDescendant:
		ap := &ast.AccessPath{Kind: ast.AccessIndexScan, Reason: "descendant::" + name + " name step"}
		if len(s.Preds) > 0 {
			if attr, val, foldable := foldableAttrPred(s.Preds[0]); foldable {
				ap.AttrName, ap.AttrValue = attr, val
				ap.Reason = "descendant name step, folded [@" + attr + " = '" + val + "']"
				s.Preds = s.Preds[1:]
				o.stats.FoldedPredicates++
			}
		}
		s.Access = ap
		o.stats.IndexScans++
	case ast.AxisChild:
		if len(s.Preds) > 0 {
			if attr, val, foldable := foldableAttrPred(s.Preds[0]); foldable {
				s.Access = &ast.AccessPath{
					Kind: ast.AccessIndexScan, AttrName: attr, AttrValue: val,
					Reason: "child name step, folded [@" + attr + " = '" + val + "']",
				}
				s.Preds = s.Preds[1:]
				o.stats.FoldedPredicates++
				o.stats.IndexScans++
				return
			}
		}
		s.Access = &ast.AccessPath{Kind: ast.AccessSynopsisPrune, Reason: "child::" + name + " name step"}
		o.stats.SynopsisPrunes++
	default:
		s.Access = &ast.AccessPath{Kind: ast.AccessTreeWalk, Reason: s.Axis.String() + " axis not indexed"}
		o.stats.TreeWalks++
	}
}

// plainName extracts the step's exact element-name test: an axis step whose
// test is a literal name with no wildcard component. Prefixed names qualify
// (the index stores full lexical names).
func plainName(s ast.Step) (string, bool) {
	if s.Primary != nil || s.Test.Kind != nil {
		return "", false
	}
	name := s.Test.Name
	if name == "" || strings.ContainsRune(name, '*') {
		return "", false
	}
	return name, true
}

// isDescOrSelfNode recognizes the bare descendant-or-self::node() step the
// parser emits for `//`. Any predicate disqualifies it from fusion.
func isDescOrSelfNode(s ast.Step) bool {
	return s.Primary == nil && len(s.Preds) == 0 &&
		s.Axis == ast.AxisDescendantOrSelf &&
		s.Test.Kind != nil && s.Test.Kind.Kind == xdm.TestAnyNode
}

// foldableAttrPred recognizes the predicate shape [@attr = 'literal'] (either
// operand order): a general = comparison between a bare single-step
// attribute path with a plain name and a string literal. Only the general
// comparison folds — it is existential and cannot raise on duplicate
// attributes, unlike the value comparison `eq` (XPTY0004 on a two-item
// sequence), and string-literal comparison of untyped attribute values is
// exact string equality, matching the index key.
func foldableAttrPred(e ast.Expr) (attr, val string, ok bool) {
	b, isBin := e.(*ast.Binary)
	if !isBin || b.Kind != ast.OpGeneralComp || b.Cmp != xdm.OpEq {
		return "", "", false
	}
	if a, v, ok := attrLitPair(b.L, b.R); ok {
		return a, v, true
	}
	return attrLitPair(b.R, b.L)
}

// attrLitPair matches (attribute path, string literal) in that order.
func attrLitPair(l, r ast.Expr) (attr, val string, ok bool) {
	lit, isLit := r.(*ast.StringLit)
	if !isLit {
		return "", "", false
	}
	p, isPath := l.(*ast.PathExpr)
	if !isPath || p.Root != ast.RootNone || len(p.Steps) != 1 {
		return "", "", false
	}
	s := p.Steps[0]
	if s.Axis != ast.AxisAttribute || len(s.Preds) != 0 {
		return "", "", false
	}
	name, plain := plainName(s)
	if !plain {
		return "", "", false
	}
	return name, lit.Value, true
}
