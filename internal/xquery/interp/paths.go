package interp

import (
	"strings"

	"lopsided/internal/xdm"
	"lopsided/internal/xmltree"
	"lopsided/internal/xmltree/index"
	"lopsided/internal/xquery/ast"
)

// Path expressions compile into pathPlans: the axis function and node test
// of every step are resolved to direct funcs at compile time, and the
// primaries/predicates are closure-compiled. The runtime walk mutates the
// context focus in place (saving and restoring around each use) instead of
// copying the whole evaluation context per item.

// predPlan is one compiled predicate.
type predPlan struct {
	expr compiledExpr
	pos  ast.Pos
}

// accessPlan is the compiled form of the optimizer's access-path decision
// for an axis step. The probe is advisory: when the context node's tree has
// no usable index the step falls back to the axis walk, producing identical
// results (the optimizer only plans shapes where that equivalence holds).
type accessPlan struct {
	kind ast.AccessKind
	// name is the element name the step selects; desc distinguishes the
	// descendant probe from the child probe.
	name string
	desc bool
	// attrName/attrValue carry a folded [@attr = 'v'] predicate. The walk
	// fallback applies it existentially over every same-named attribute
	// (duplicate-attribute trees make first-match wrong).
	attrName, attrValue string
	hasAttr             bool
}

// probe tries to serve the step's node set from the context tree's index.
// served is false when no index is available (unfrozen tree, foreign node,
// or an unhelpful synopsis answer) and the caller must walk.
func (a *accessPlan) probe(ctx *xmltree.Node) (nodes []*xmltree.Node, served bool) {
	ix, ok := index.For(ctx.Root())
	if !ok {
		return nil, false
	}
	switch {
	case a.kind == ast.AccessSynopsisPrune:
		if exists, answered := ix.ChildMayExist(ctx, a.name); answered && !exists {
			return nil, true
		}
		return nil, false
	case a.desc && a.hasAttr:
		return ix.DescendantsAttrEq(ctx, a.name, a.attrName, a.attrValue)
	case a.desc:
		return ix.Descendants(ctx, a.name)
	case a.hasAttr:
		return ix.ChildrenAttrEq(ctx, a.name, a.attrName, a.attrValue)
	}
	return nil, false
}

// stepPlan is one compiled path step: an axis step (axis, axisFunc+test)
// or a filter step (primary non-nil), each with predicates.
type stepPlan struct {
	axis     ast.Axis
	axisFunc func(*xmltree.Node) []*xmltree.Node
	test     func(*xmltree.Node) bool
	access   *accessPlan
	primary  compiledExpr
	preds    []predPlan
	pos      ast.Pos
}

type pathPlan struct {
	root  ast.PathRoot
	steps []stepPlan
	pos   ast.Pos
}

func (cp *compiler) compilePath(n *ast.PathExpr) compiledExpr {
	p := &pathPlan{root: n.Root, pos: n.Pos()}
	for _, st := range n.Steps {
		p.steps = append(p.steps, cp.compileStep(st))
	}
	// A single filter step with no rooting is a standalone filter
	// expression, not a path: no homogeneity requirement, no document-order
	// sorting.
	if n.Root == ast.RootNone && len(n.Steps) == 1 && n.Steps[0].Primary != nil {
		sp := &p.steps[0]
		return sp.eval
	}
	return p.eval
}

func (cp *compiler) compileStep(st ast.Step) stepPlan {
	sp := stepPlan{pos: st.P}
	if st.Primary != nil {
		sp.primary = cp.compile(st.Primary)
	} else {
		sp.axis = st.Axis
		sp.axisFunc = axisFunc(st.Axis)
		sp.test = makeTest(st.Test, st.Axis)
		sp.access = cp.compileAccess(st)
	}
	for _, pr := range st.Preds {
		sp.preds = append(sp.preds, predPlan{expr: cp.compile(pr), pos: pr.Pos()})
	}
	return sp
}

// compileAccess lowers the optimizer's access-path decision onto the step
// and records it as a plan note for EXPLAIN. Tree walks compile to a nil
// accessPlan (the default dispatch); unplanned steps (O0, or paths built
// outside the optimizer) stay silent tree walks.
func (cp *compiler) compileAccess(st ast.Step) *accessPlan {
	ap := st.Access
	if ap == nil {
		return nil
	}
	suffix := ""
	if ap.Reason != "" {
		suffix = " (" + ap.Reason + ")"
	}
	cp.note(st.P, "access path %s %s::%s%s", ap.Kind, st.Axis, st.Test.Name, suffix)
	if ap.Kind == ast.AccessTreeWalk {
		return nil
	}
	return &accessPlan{
		kind:      ap.Kind,
		name:      st.Test.Name,
		desc:      st.Axis == ast.AxisDescendant,
		attrName:  ap.AttrName,
		attrValue: ap.AttrValue,
		hasAttr:   ap.AttrName != "",
	}
}

func axisFunc(axis ast.Axis) func(*xmltree.Node) []*xmltree.Node {
	switch axis {
	case ast.AxisChild:
		// Read the child list in place: stepPlan.eval only iterates the
		// returned slice, so xmltree.ChildAxis's defensive copy is wasted.
		return func(n *xmltree.Node) []*xmltree.Node {
			if n.Kind != xmltree.ElementNode && n.Kind != xmltree.DocumentNode {
				return nil
			}
			return n.Children()
		}
	case ast.AxisDescendant:
		return xmltree.DescendantAxis
	case ast.AxisAttribute:
		return func(n *xmltree.Node) []*xmltree.Node {
			if n.Kind != xmltree.ElementNode {
				return nil
			}
			return n.Attrs()
		}
	case ast.AxisSelf:
		return xmltree.SelfAxis
	case ast.AxisDescendantOrSelf:
		return xmltree.DescendantOrSelfAxis
	case ast.AxisFollowingSibling:
		return xmltree.FollowingSiblingAxis
	case ast.AxisFollowing:
		return xmltree.FollowingAxis
	case ast.AxisParent:
		return xmltree.ParentAxis
	case ast.AxisAncestor:
		return xmltree.AncestorAxis
	case ast.AxisPrecedingSibling:
		return xmltree.PrecedingSiblingAxis
	case ast.AxisPreceding:
		return xmltree.PrecedingAxis
	case ast.AxisAncestorOrSelf:
		return xmltree.AncestorOrSelfAxis
	}
	return func(*xmltree.Node) []*xmltree.Node { return nil }
}

// makeTest compiles a node test into a direct matcher. Name tests select
// the axis's principal node kind: attributes on the attribute axis,
// elements elsewhere.
func makeTest(test ast.NodeTest, axis ast.Axis) func(*xmltree.Node) bool {
	if test.Kind != nil {
		kind := test.Kind
		return func(n *xmltree.Node) bool { return kind.MatchesItem(xdm.NewNode(n)) }
	}
	principal := xmltree.ElementNode
	if axis == ast.AxisAttribute {
		principal = xmltree.AttributeNode
	}
	name := test.Name
	switch {
	case name == "*":
		return func(n *xmltree.Node) bool { return n.Kind == principal }
	case strings.HasSuffix(name, ":*"):
		prefix := strings.TrimSuffix(name, ":*")
		return func(n *xmltree.Node) bool { return n.Kind == principal && n.Prefix() == prefix }
	case strings.HasPrefix(name, "*:"):
		local := strings.TrimPrefix(name, "*:")
		return func(n *xmltree.Node) bool { return n.Kind == principal && n.LocalName() == local }
	}
	return func(n *xmltree.Node) bool { return n.Kind == principal && n.Name == name }
}

// eval evaluates the compiled path: optional rooting, then steps, each
// applied to every item of the previous step's result with a fresh focus.
func (p *pathPlan) eval(c *evalCtx) (xdm.Sequence, error) {
	var current xdm.Sequence
	switch p.root {
	case ast.RootNone:
		// First step runs against the current focus (axis steps) or no
		// input at all (filter steps such as variables and literals).
		return p.evalSteps(c, nil, antichain)
	case ast.RootSlash, ast.RootSlashSlash:
		it, err := c.FocusItem()
		if err != nil {
			return nil, errAt(err, p.pos)
		}
		node, ok := xdm.IsNode(it)
		if !ok {
			return nil, &Error{Code: "XPDY0050", Pos: p.pos, Msg: "'/' with a non-node context item"}
		}
		root := node.Root()
		current = xdm.Singleton(xdm.NewNode(root))
		fact := antichain
		if p.root == ast.RootSlashSlash {
			// Leading // is /descendant-or-self::node()/ before the steps.
			current = xdm.FromNodes(xmltree.DescendantOrSelfAxis(root))
			fact = ordered
		}
		if len(p.steps) == 0 {
			return current, nil
		}
		return p.evalSteps(c, current, fact)
	}
	return current, nil
}

// order is what evalSteps has proven about the order of a node sequence.
// A step whose output order is proven skips the document-order sort, which
// would return its input unchanged.
type order uint8

const (
	unproven  order = iota
	ordered         // document order (xmltree.SortDocOrder's), no duplicates
	antichain       // ordered, and no item is an ancestor of another
)

// after returns the order a step's output is proven to have, given the
// proven order of its input and whether that input is a single item (which
// is trivially an antichain). Predicates only drop items, so they keep the
// proof. Filter steps, reverse axes and parent are never proven.
func (sp *stepPlan) after(in order, single bool) order {
	if single {
		in = antichain
	}
	if sp.primary != nil {
		return unproven
	}
	switch sp.axis {
	case ast.AxisChild:
		// Children of disjoint subtrees, taken subtree by subtree.
		if in == antichain {
			return antichain
		}
	case ast.AxisAttribute:
		// An element's attributes follow it and precede its children, and
		// stay in its tree's group: input order carries over.
		if in >= ordered {
			return antichain
		}
	case ast.AxisSelf:
		return in
	case ast.AxisDescendant, ast.AxisDescendantOrSelf:
		// Whole disjoint subtrees in document order (index probes list
		// descendants in document order too).
		if in == antichain {
			return ordered
		}
	case ast.AxisFollowingSibling, ast.AxisFollowing:
		if single {
			return ordered
		}
	}
	return unproven
}

// evalSteps applies each step in order. input nil means "use current focus
// for axis steps, nothing for filter steps" (the first step of a relative
// path). fact is the proven order of input (of the focus item when input is
// nil).
func (p *pathPlan) evalSteps(c *evalCtx, input xdm.Sequence, fact order) (xdm.Sequence, error) {
	current := input
	saved := c.focus
	for si := range p.steps {
		sp := &p.steps[si]
		fact = sp.after(fact, current == nil || len(current) == 1)
		var result xdm.Sequence
		if current == nil {
			// First step of a relative path: axis steps need the enclosing
			// focus, filter primaries are focus-free.
			if sp.primary == nil && !c.focus.set {
				return nil, &Error{Code: "XPDY0002", Pos: sp.pos,
					Msg: "axis step with no context item"}
			}
			var err error
			result, err = sp.eval(c)
			if err != nil {
				return nil, err
			}
		} else {
			for pos, it := range current {
				c.focus = focus{item: it, pos: pos + 1, size: len(current), set: true}
				part, err := sp.eval(c)
				if err != nil {
					c.focus = saved
					return nil, err
				}
				// Appending (not Concat) keeps one growing backing array per
				// step instead of re-copying the accumulator per context item.
				result = append(result, part...)
			}
			c.focus = saved
		}
		// Normalize node results into document order unless already proven;
		// mixed node/atomic results are illegal; pure atomic results are
		// allowed only in the final step. Axis steps yield only nodes.
		hasNode, hasAtomic := len(result) > 0, false
		if sp.primary != nil {
			hasNode, hasAtomic = classify(result)
		}
		switch {
		case hasNode && hasAtomic:
			return nil, &Error{Code: "XPTY0018", Pos: sp.pos,
				Msg: "path step produced both nodes and atomic values"}
		case hasNode && fact == unproven:
			sorted, err := xdm.SortDoc(result)
			if err != nil {
				return nil, errAt(err, sp.pos)
			}
			result, fact = sorted, ordered
		case hasAtomic && si < len(p.steps)-1:
			return nil, &Error{Code: "XPTY0019", Pos: p.steps[si+1].pos,
				Msg: "path step applied to atomic values"}
		}
		current = result
	}
	return current, nil
}

func classify(s xdm.Sequence) (hasNode, hasAtomic bool) {
	for _, it := range s {
		if _, ok := xdm.IsNode(it); ok {
			hasNode = true
		} else {
			hasAtomic = true
		}
	}
	return hasNode, hasAtomic
}

// eval evaluates one step against the current focus.
func (sp *stepPlan) eval(c *evalCtx) (xdm.Sequence, error) {
	if sp.primary != nil {
		prim, err := sp.primary(c)
		if err != nil {
			return nil, err
		}
		return sp.applyPredicates(c, prim)
	}
	it, err := c.FocusItem()
	if err != nil {
		return nil, errAt(err, sp.pos)
	}
	node, ok := xdm.IsNode(it)
	if !ok {
		return nil, &Error{Code: "XPTY0019", Pos: sp.pos,
			Msg: "axis step applied to atomic value " + it.TypeName()}
	}
	if sp.access != nil {
		if nodes, served := sp.access.probe(node); served {
			// Index lists are in document order (= forward axis order), and
			// the name (and any folded attribute) condition is already
			// satisfied; remaining predicates still apply.
			out := make(xdm.Sequence, 0, len(nodes))
			for _, cand := range nodes {
				out = append(out, xdm.NewNode(cand))
			}
			return sp.applyPredicates(c, out)
		}
	}
	nodes := sp.axisFunc(node)
	// Predicates see positions in axis order (reverse axes count backward
	// from the context node), which is already the order of `out`.
	out := make(xdm.Sequence, 0, len(nodes))
	for _, cand := range nodes {
		if sp.test(cand) {
			if sp.access != nil && sp.access.hasAttr &&
				!index.AttrAnyEq(cand, sp.access.attrName, sp.access.attrValue) {
				continue // folded [@attr = 'v'] applies on the walk fallback too
			}
			out = append(out, xdm.NewNode(cand))
		}
	}
	return sp.applyPredicates(c, out)
}

// applyPredicates filters seq through each predicate in turn. A predicate
// evaluating to a singleton numeric value selects by position; anything
// else filters by effective boolean value.
func (sp *stepPlan) applyPredicates(c *evalCtx, seq xdm.Sequence) (xdm.Sequence, error) {
	if len(sp.preds) == 0 {
		return seq, nil
	}
	saved := c.focus
	for pi := range sp.preds {
		pred := &sp.preds[pi]
		var kept xdm.Sequence
		size := len(seq)
		for i, it := range seq {
			pos := i + 1
			c.focus = focus{item: it, pos: pos, size: size, set: true}
			pv, err := pred.expr(c)
			if err != nil {
				c.focus = saved
				return nil, err
			}
			keep, err := predicateHolds(pv, pos)
			if err != nil {
				c.focus = saved
				return nil, errAt(err, pred.pos)
			}
			if keep {
				kept = append(kept, it)
			}
		}
		seq = kept
	}
	c.focus = saved
	return seq, nil
}

func predicateHolds(pv xdm.Sequence, pos int) (bool, error) {
	if len(pv) == 1 && xdm.IsNumeric(pv[0]) {
		return xdm.NumberOf(pv[0]) == float64(pos), nil
	}
	return xdm.EffectiveBool(pv)
}
