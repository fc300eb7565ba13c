package difftest

import (
	"fmt"
	"math/rand"
	"strings"

	"lopsided/xq"
)

// The generator builds queries as expression trees (gnode) and renders them
// to source, so the minimizer can shrink a diverging case structurally
// instead of chopping strings. The grammar is deliberately lopsided toward
// the paper's hot spots:
//
//   - nested sequence construction and [N] indexing (table T1), empty
//     sequences included;
//   - attribute nodes in child position of element constructors, valid and
//     invalid orders, exercised under all four DupAttrPolicy values (T3);
//   - FLWOR over possibly-empty sequences, with dead lets bound to
//     possibly-erroring expressions (the dead-code elimination trap);
//   - try/catch around erroring and budget-hungry expressions;
//   - general vs value comparisons over NaN, untyped attribute content, and
//     mixed numeric types;
//   - arithmetic that can raise (div/idiv/mod by zero, bad casts) and
//     under-arity concat calls (the constant-folding traps).

// gnode is one generated expression: literal source fragments interleaved
// with child expressions.
type gnode struct {
	parts []any // string | *gnode
}

func lit(parts ...any) *gnode { return &gnode{parts: parts} }

func (n *gnode) render(b *strings.Builder) {
	for _, p := range n.parts {
		switch v := p.(type) {
		case string:
			b.WriteString(v)
		case *gnode:
			v.render(b)
		}
	}
}

// Source renders the tree to XQuery source.
func (n *gnode) Source() string {
	var b strings.Builder
	n.render(&b)
	return b.String()
}

// gen carries the random stream and the variable scope during generation.
type gen struct {
	rng  *rand.Rand
	vars []string // bound $names available for reference
	nvar int      // fresh-name counter
}

// Generate builds the differential case for a seed: a query tree, a context
// document, and a duplicate-attribute policy. The same seed always yields
// the same case.
func Generate(seed int64) Case {
	c, _ := GenerateTree(seed)
	return c
}

// GenerateTree is Generate, also returning the expression tree for the
// minimizer.
func GenerateTree(seed int64) (Case, *gnode) {
	g := &gen{rng: rand.New(rand.NewSource(seed))}
	root := g.expr(0)
	policies := []xq.DupAttrPolicy{
		xq.DupAttrLastWins, xq.DupAttrFirstWins, xq.DupAttrGalaxBug, xq.DupAttrError,
	}
	c := Case{
		Seed:   seed,
		Src:    root.Source(),
		Doc:    g.document(),
		Policy: policies[g.rng.Intn(len(policies))],
	}
	return c, root
}

// document builds a context document with untyped numeric, NaN-ish, and
// textual attribute content for the path/comparison productions. One draw in
// four builds the bulk shape instead: dozens of items, some nested under
// <grp> wrappers at varying depth with comments and stray text between them
// — the shape that stresses the streaming tiers (ancestor-shell retention,
// dead-branch skipping, `//` matching at depth) without changing what the
// small shape's paths mean.
func (g *gen) document() string {
	var b strings.Builder
	b.WriteString("<r>")
	vals := []string{"1", "2", "3.5", "NaN", "abc", "", "0", "-7"}
	item := func(i int) {
		fmt.Fprintf(&b, `<item n="%s" k="k%d">%s</item>`,
			vals[g.rng.Intn(len(vals))], i, vals[g.rng.Intn(len(vals))])
	}
	if g.rng.Intn(4) == 0 {
		n := 20 + g.rng.Intn(100)
		for i := 0; i < n; i++ {
			switch g.rng.Intn(6) {
			case 0:
				// Nested group: items reachable by // but not /r/item.
				depth := 1 + g.rng.Intn(3)
				for d := 0; d < depth; d++ {
					b.WriteString("<grp>")
				}
				item(i)
				for d := 0; d < depth; d++ {
					b.WriteString("</grp>")
				}
			case 1:
				b.WriteString("<!-- filler -->")
				item(i)
			case 2:
				b.WriteString("<pad><deep><deeper/></deep></pad>")
				item(i)
			default:
				item(i)
			}
		}
	} else {
		n := 1 + g.rng.Intn(4)
		for i := 0; i < n; i++ {
			item(i)
		}
	}
	b.WriteString("<empty/></r>")
	return b.String()
}

func (g *gen) fresh() string {
	g.nvar++
	return fmt.Sprintf("v%d", g.nvar)
}

func (g *gen) pick(opts []string) string { return opts[g.rng.Intn(len(opts))] }

// atom generates a leaf expression.
func (g *gen) atom() *gnode {
	if len(g.vars) > 0 && g.rng.Intn(4) == 0 {
		return lit("$" + g.vars[g.rng.Intn(len(g.vars))])
	}
	switch g.rng.Intn(10) {
	case 0:
		return lit("()")
	case 1:
		return lit(g.pick([]string{`"a"`, `"b"`, `""`, `"x y"`, `"NaN"`, `"1"`}))
	case 2:
		return lit(g.pick([]string{"1.5", "0.5", "2.0"}))
	case 3:
		return lit(g.pick([]string{"1e0", "0e0", "1.5e1"}))
	case 4:
		return lit(`xs:double("NaN")`)
	case 5:
		return lit(g.pick([]string{"true()", "false()"}))
	default:
		return lit(g.pick([]string{"0", "1", "2", "3", "-1", "7", "10"}))
	}
}

// seq generates a sequence expression, biased toward nesting and empties.
func (g *gen) seq(depth int) *gnode {
	n := g.rng.Intn(4)
	parts := []any{"("}
	for i := 0; i <= n; i++ {
		if i > 0 {
			parts = append(parts, ", ")
		}
		switch {
		case g.rng.Intn(4) == 0:
			parts = append(parts, "()")
		case depth < 3 && g.rng.Intn(3) == 0:
			parts = append(parts, g.seq(depth+1))
		default:
			parts = append(parts, g.expr(depth+1))
		}
	}
	parts = append(parts, ")")
	return &gnode{parts: parts}
}

// indexed generates T1-style sequence indexing: (…)[N] or (…)[last()].
func (g *gen) indexed(depth int) *gnode {
	idx := g.pick([]string{"1", "2", "3", "4", "last()", "0"})
	return lit(g.seq(depth), "[", idx, "]")
}

// comparison generates value/general comparisons over hazard-prone
// operands.
func (g *gen) comparison(depth int) *gnode {
	ops := []string{"=", "!=", "<", "<=", ">", ">=", "eq", "ne", "lt", "le", "gt", "ge"}
	op := g.pick(ops)
	l, r := g.operand(depth), g.operand(depth)
	return lit("(", l, " ", op, " ", r, ")")
}

// operand picks comparison/arithmetic operands: atoms, sequences, path
// results (untyped!), NaN.
func (g *gen) operand(depth int) *gnode {
	switch g.rng.Intn(6) {
	case 0:
		return g.seq(depth + 1)
	case 1:
		return g.path()
	case 2:
		return lit(`xs:double("NaN")`)
	default:
		return g.atom()
	}
}

// arith generates arithmetic including the error-raising corners.
func (g *gen) arith(depth int) *gnode {
	op := g.pick([]string{" + ", " - ", " * ", " div ", " idiv ", " mod "})
	return lit("(", g.operand(depth), op, g.operand(depth), ")")
}

// path generates a path over the fixed document shape. The pick-list grew
// with the access-path layer (`//name` and `[@attr = 'v']` shapes stressing
// index eligibility: fusable and fusion-blocked `//`, foldable and
// unfoldable attribute predicates, hits and misses in the value index,
// and `//` before an attribute step, which must never fuse) —
// which shifts the RNG draws of older pinned seeds; their lines in
// seeds.txt remain valid replay inputs regardless.
func (g *gen) path() *gnode {
	p := g.pick([]string{
		"/r/item", "/r/item/@n", "/r//item", "/r/empty", "/r/item/text()",
		"/r/item[1]", "/r/item[2]/@n", "/r/*", "/r/item[@n = 1]",
		"/r/item[last()]", "/r/nope",
		"//item", "//item/@k", "//empty", "//nope",
		"/r/item[@k = 'k0']", "/r/item[@k = 'zz']", "/r//item[@k = 'k1']",
		"//item[@k = 'k0']/@n", "//item[@n = '2']", "//item[@k = 'k1'][1]",
		"//item[2]", "/r/item[@n = 'abc']", "//item[@k = 'k0'][@n = '1']",
		"//@k", "/r//@n",
	})
	return lit(p)
}

// flwor generates FLWOR expressions with possibly-empty input sequences,
// dead lets over possibly-erroring values, where/order-by, and positional
// variables.
func (g *gen) flwor(depth int) *gnode {
	parts := []any{}
	var bound []string
	clauses := 1 + g.rng.Intn(3)
	for i := 0; i < clauses; i++ {
		v := g.fresh()
		if g.rng.Intn(2) == 0 {
			parts = append(parts, "for $", v)
			if g.rng.Intn(4) == 0 {
				p := g.fresh()
				parts = append(parts, " at $", p)
				bound = append(bound, p)
				g.vars = append(g.vars, p)
			}
			parts = append(parts, " in ")
			if g.rng.Intn(4) == 0 {
				parts = append(parts, "()")
			} else if g.rng.Intn(3) == 0 {
				parts = append(parts, lit("(", g.pick([]string{"1 to 3", "1 to 0", "1 to 5"}), ")"))
			} else {
				parts = append(parts, g.seq(depth+1))
			}
			parts = append(parts, " ")
		} else {
			parts = append(parts, "let $", v, " := ", g.letValue(depth), " ")
		}
		bound = append(bound, v)
		g.vars = append(g.vars, v)
	}
	if g.rng.Intn(3) == 0 {
		parts = append(parts, "where ", g.comparison(depth+1), " ")
	}
	if g.rng.Intn(4) == 0 {
		parts = append(parts, "order by ", g.operand(depth+1))
		if g.rng.Intn(2) == 0 {
			parts = append(parts, " descending")
		}
		parts = append(parts, " ")
	}
	parts = append(parts, "return ", g.expr(depth+1))
	g.vars = g.vars[:len(g.vars)-len(bound)]
	return &gnode{parts: parts}
}

// letValue biases let bindings toward the dead-code elimination trap:
// values that may raise, trace calls, and plain totals. The return
// expression frequently does NOT use the variable, leaving it dead.
func (g *gen) letValue(depth int) *gnode {
	switch g.rng.Intn(6) {
	case 0:
		return g.arith(depth + 1) // may divide by zero
	case 1:
		return lit("(", g.operand(depth+1), ` cast as `, g.pick([]string{"xs:integer", "xs:double", "xs:boolean"}), ")")
	case 2:
		return lit(`trace("dead=", `, g.atom(), ")")
	case 3:
		return lit("concat(", g.atom(), ")") // under-arity: XPST0017
	default:
		return g.expr(depth + 1)
	}
}

// constructor generates direct element constructors with attributes in
// child position — valid leading positions and invalid
// attribute-after-content orders (XQTY0024) — plus duplicate computed
// attributes for the DupAttrPolicy split.
func (g *gen) constructor(depth int) *gnode {
	switch g.rng.Intn(4) {
	case 0:
		// Computed element with attribute content, duplicates likely.
		parts := []any{"element e { "}
		n := 1 + g.rng.Intn(3)
		names := []string{"a", "a", "b"} // "a" twice: duplicates on purpose
		for i := 0; i < n; i++ {
			if i > 0 {
				parts = append(parts, ", ")
			}
			parts = append(parts, "attribute ", names[g.rng.Intn(len(names))], " { ", g.atom(), " }")
		}
		if g.rng.Intn(2) == 0 {
			parts = append(parts, ", ", g.expr(depth+1))
			if g.rng.Intn(3) == 0 {
				// Attribute after content: XQTY0024 in every configuration.
				parts = append(parts, ", attribute z { 1 }")
			}
		}
		parts = append(parts, " }")
		return &gnode{parts: parts}
	case 1:
		// Direct element with enclosed attribute sequence up front.
		return lit(`<el>{`, g.attrSeq(), `}`, g.contentExpr(depth), `</el>`)
	case 2:
		// The T1 element form: enclosed exprs that may or may not lead with
		// attributes.
		return lit(`<el>{`, g.expr(depth+1), `}{`, g.expr(depth+1), `}</el>`)
	default:
		return lit(`<el a="s" b="{`, g.atom(), `}">`, `text-{`, g.atom(), `}`, `</el>`)
	}
}

// attrSeq yields a sequence of computed attributes (duplicates likely).
func (g *gen) attrSeq() *gnode {
	n := 1 + g.rng.Intn(2)
	parts := []any{}
	for i := 0; i <= n; i++ {
		if i > 0 {
			parts = append(parts, ", ")
		}
		parts = append(parts, "attribute ", g.pick([]string{"a", "a", "b"}), " { ", g.atom(), " }")
	}
	return &gnode{parts: parts}
}

// contentExpr yields direct-constructor content after the enclosed
// attributes: text, nested constructor, or another enclosed expression.
func (g *gen) contentExpr(depth int) *gnode {
	switch g.rng.Intn(3) {
	case 0:
		return lit("txt")
	case 1:
		if depth < 3 {
			return g.constructor(depth + 1)
		}
		return lit("<kid/>")
	default:
		return lit("{", g.expr(depth+1), "}")
	}
}

// tryCatch wraps an expression (frequently an erroring one) in try/catch.
func (g *gen) tryCatch(depth int) *gnode {
	inner := g.expr(depth + 1)
	switch g.rng.Intn(3) {
	case 0:
		return lit("try { ", inner, ` } catch ($m) { ("caught", $m) }`)
	case 1:
		return lit("try { ", inner, " } catch ($m, $c) { $c }")
	default:
		return lit("try { ", inner, ` } catch { "caught" }`)
	}
}

// call generates built-in calls, including the folding-sensitive ones.
func (g *gen) call(depth int) *gnode {
	switch g.rng.Intn(6) {
	case 0:
		return lit("concat(", g.atom(), ", ", g.atom(), ")")
	case 1:
		return lit("count(", g.seq(depth+1), ")")
	case 2:
		return lit("string(", g.atom(), ")")
	case 3:
		return lit("number(", g.atom(), ")")
	case 4:
		return lit("string-join(", g.seq(depth+1), `, "-")`)
	default:
		return lit("index-of(", g.seq(depth+1), ", ", g.atom(), ")")
	}
}

// expr is the root production.
func (g *gen) expr(depth int) *gnode {
	if depth >= 4 {
		return g.atom()
	}
	switch g.rng.Intn(12) {
	case 0:
		return g.indexed(depth)
	case 1:
		return g.seq(depth)
	case 2:
		return g.flwor(depth)
	case 3:
		return g.comparison(depth)
	case 4:
		return g.arith(depth)
	case 5:
		return g.constructor(depth)
	case 6:
		return g.tryCatch(depth)
	case 7:
		return g.call(depth)
	case 8:
		return g.path()
	case 9:
		return lit("if (", g.comparison(depth+1), ") then ", g.expr(depth+1), " else ", g.expr(depth+1))
	case 10:
		v := g.fresh()
		g.vars = append(g.vars, v)
		q := lit(g.pick([]string{"some", "every"}), " $", v, " in ", g.seq(depth+1), " satisfies ", g.comparison(depth+1))
		g.vars = g.vars[:len(g.vars)-1]
		return q
	default:
		return g.atom()
	}
}
