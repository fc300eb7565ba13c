// Package parser implements a recursive-descent parser for the XQuery
// subset: full expression grammar (FLWOR, quantified expressions,
// typeswitch, paths with all major axes, direct and computed constructors)
// plus the main-module prolog (function, variable, namespace and
// boundary-space declarations).
//
// Keywords are context-sensitive, as in XQuery: the lexer emits plain names
// and the parser decides, which is what makes `<x/>/div` an element and
// `$a div $b` a division.
package parser

import (
	"fmt"

	"lopsided/internal/xdm"
	"lopsided/internal/xquery/ast"
	"lopsided/internal/xquery/lexer"
)

// Parser parses one source string.
type Parser struct {
	lx    *lexer.Lexer
	tok   lexer.Token
	depth int
}

// maxNestingDepth bounds expression nesting. Recursive descent consumes
// goroutine stack per nesting level and a Go stack overflow is not
// recoverable, so deeply nested input (`((((…`) must be rejected as a
// static error before it can crash the process. The limit is far above any
// human-written query.
const maxNestingDepth = 3000

// enter charges one nesting level; the caller must defer p.leave().
func (p *Parser) enter() error {
	p.depth++
	if p.depth > maxNestingDepth {
		return p.errf("expression nesting exceeds %d levels", maxNestingDepth)
	}
	return nil
}

func (p *Parser) leave() { p.depth-- }

// Parse parses a complete main module (prolog + body expression).
func Parse(src string) (*ast.Module, error) { return parseModule(src, false) }

// parseModule parses the prolog shared by both program kinds, then a body
// expression (query) or a statement list (update program, see update.go).
func parseModule(src string, update bool) (*ast.Module, error) {
	p := &Parser{lx: lexer.New(src)}
	if err := p.next(); err != nil {
		return nil, err
	}
	mod := &ast.Module{Namespaces: map[string]string{}}
	if err := p.parseProlog(mod); err != nil {
		return nil, err
	}
	if update {
		stmts, err := p.parseStmtSeq()
		if err != nil {
			return nil, err
		}
		if p.tok.Kind != lexer.EOF {
			return nil, p.errf("unexpected %s %q after end of update program", p.tok.Kind, p.tok.Text)
		}
		mod.Stmts = stmts
		return mod, nil
	}
	body, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.tok.Kind != lexer.EOF {
		return nil, p.errf("unexpected %s after end of expression", p.tok.Kind)
	}
	mod.Body = body
	return mod, nil
}

// ParseExpr parses a bare expression (no prolog).
func ParseExpr(src string) (ast.Expr, error) {
	mod, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return mod.Body, nil
}

func (p *Parser) next() error {
	t, err := p.lx.Next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

// peekNext returns the token after the current one without consuming it.
func (p *Parser) peekNext() lexer.Token {
	save := p.lx.Save()
	t, err := p.lx.Next()
	p.lx.Restore(save)
	if err != nil {
		return lexer.Token{Kind: lexer.EOF}
	}
	return t
}

func (p *Parser) errf(format string, args ...interface{}) error {
	return &lexer.Error{Pos: p.tok.Pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *Parser) expect(k lexer.Kind) error {
	if p.tok.Kind != k {
		return p.errf("expected %s, found %s %q", k, p.tok.Kind, p.tok.Text)
	}
	return p.next()
}

// isName reports whether the current token is the given context-sensitive
// keyword.
func (p *Parser) isName(word string) bool {
	return p.tok.Kind == lexer.NAME && p.tok.Text == word
}

func (p *Parser) expectName(word string) error {
	if !p.isName(word) {
		return p.errf("expected %q, found %s %q", word, p.tok.Kind, p.tok.Text)
	}
	return p.next()
}

// at returns the current token's position wrapped for AST nodes.
func (p *Parser) at() ast.Base { return ast.At(p.tok.Pos) }

// ---- Prolog ----

func (p *Parser) parseProlog(mod *ast.Module) error {
	for (p.isName("declare") || p.isName("define")) && p.peekNext().Kind == lexer.NAME {
		kw := p.peekNext().Text
		switch kw {
		case "namespace", "default", "boundary-space", "function", "variable", "option":
		default:
			return nil // not a prolog declaration; body begins
		}
		if err := p.next(); err != nil { // consume declare/define
			return err
		}
		var err error
		switch kw {
		case "namespace":
			err = p.parseDeclNamespace(mod)
		case "default":
			err = p.parseDeclDefault(mod)
		case "boundary-space":
			err = p.parseDeclBoundarySpace(mod)
		case "function":
			err = p.parseDeclFunction(mod)
		case "variable":
			err = p.parseDeclVariable(mod)
		case "option":
			err = p.parseDeclOption()
		}
		if err != nil {
			return err
		}
		if p.tok.Kind == lexer.SEMI {
			if err := p.next(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (p *Parser) parseDeclNamespace(mod *ast.Module) error {
	if err := p.expectName("namespace"); err != nil {
		return err
	}
	if p.tok.Kind != lexer.NAME {
		return p.errf("expected namespace prefix")
	}
	prefix := p.tok.Text
	if err := p.next(); err != nil {
		return err
	}
	if err := p.expect(lexer.EQ); err != nil {
		return err
	}
	if p.tok.Kind != lexer.STRING {
		return p.errf("expected namespace URI string")
	}
	mod.Namespaces[prefix] = p.tok.Text
	return p.next()
}

func (p *Parser) parseDeclDefault(mod *ast.Module) error {
	if err := p.expectName("default"); err != nil {
		return err
	}
	if !p.isName("element") && !p.isName("function") {
		return p.errf("expected 'element' or 'function' after 'declare default'")
	}
	which := p.tok.Text
	if err := p.next(); err != nil {
		return err
	}
	if err := p.expectName("namespace"); err != nil {
		return err
	}
	if p.tok.Kind != lexer.STRING {
		return p.errf("expected namespace URI string")
	}
	mod.Namespaces["#default-"+which] = p.tok.Text
	return p.next()
}

func (p *Parser) parseDeclBoundarySpace(mod *ast.Module) error {
	if err := p.expectName("boundary-space"); err != nil {
		return err
	}
	switch {
	case p.isName("preserve"):
		mod.BoundarySpacePreserve = true
	case p.isName("strip"):
		mod.BoundarySpacePreserve = false
	default:
		return p.errf("expected 'preserve' or 'strip'")
	}
	return p.next()
}

func (p *Parser) parseDeclOption() error {
	if err := p.expectName("option"); err != nil {
		return err
	}
	if p.tok.Kind != lexer.NAME {
		return p.errf("expected option name")
	}
	if err := p.next(); err != nil {
		return err
	}
	if p.tok.Kind != lexer.STRING {
		return p.errf("expected option value string")
	}
	return p.next()
}

func (p *Parser) parseDeclFunction(mod *ast.Module) error {
	pos := p.tok.Pos
	if err := p.expectName("function"); err != nil {
		return err
	}
	if p.tok.Kind != lexer.NAME {
		return p.errf("expected function name")
	}
	fd := &ast.FuncDecl{Name: p.tok.Text, Ret: xdm.AnySequence, P: pos}
	if err := p.next(); err != nil {
		return err
	}
	if err := p.expect(lexer.LPAREN); err != nil {
		return err
	}
	for p.tok.Kind != lexer.RPAREN {
		if p.tok.Kind != lexer.VAR {
			return p.errf("expected parameter $name")
		}
		param := ast.Param{Name: p.tok.Text, Type: xdm.AnySequence}
		if err := p.next(); err != nil {
			return err
		}
		if p.isName("as") {
			if err := p.next(); err != nil {
				return err
			}
			t, err := p.parseSequenceType()
			if err != nil {
				return err
			}
			param.Type = t
		}
		fd.Params = append(fd.Params, param)
		if p.tok.Kind == lexer.COMMA {
			if err := p.next(); err != nil {
				return err
			}
		} else if p.tok.Kind != lexer.RPAREN {
			return p.errf("expected ',' or ')' in parameter list")
		}
	}
	if err := p.next(); err != nil { // consume )
		return err
	}
	if p.isName("as") {
		if err := p.next(); err != nil {
			return err
		}
		t, err := p.parseSequenceType()
		if err != nil {
			return err
		}
		fd.Ret = t
	}
	if err := p.expect(lexer.LBRACE); err != nil {
		return err
	}
	body, err := p.parseExpr()
	if err != nil {
		return err
	}
	fd.Body = body
	if err := p.expect(lexer.RBRACE); err != nil {
		return err
	}
	mod.Functions = append(mod.Functions, fd)
	return nil
}

func (p *Parser) parseDeclVariable(mod *ast.Module) error {
	pos := p.tok.Pos
	if err := p.expectName("variable"); err != nil {
		return err
	}
	if p.tok.Kind != lexer.VAR {
		return p.errf("expected $name in variable declaration")
	}
	vd := &ast.VarDecl{Name: p.tok.Text, P: pos}
	if err := p.next(); err != nil {
		return err
	}
	if p.isName("as") {
		if err := p.next(); err != nil {
			return err
		}
		if _, err := p.parseSequenceType(); err != nil {
			return err
		}
	}
	switch {
	case p.tok.Kind == lexer.ASSIGN:
		if err := p.next(); err != nil {
			return err
		}
		val, err := p.parseExprSingle()
		if err != nil {
			return err
		}
		vd.Val = val
	case p.tok.Kind == lexer.LBRACE: // 2004-draft form: declare variable $x { expr }
		if err := p.next(); err != nil {
			return err
		}
		val, err := p.parseExpr()
		if err != nil {
			return err
		}
		if err := p.expect(lexer.RBRACE); err != nil {
			return err
		}
		vd.Val = val
	case p.isName("external"):
		if err := p.next(); err != nil {
			return err
		}
	default:
		return p.errf("expected ':=', '{', or 'external' in variable declaration")
	}
	mod.Vars = append(mod.Vars, vd)
	return nil
}

// ---- Expressions ----

// parseExpr parses a comma-separated expression sequence.
func (p *Parser) parseExpr() (ast.Expr, error) {
	b := p.at()
	first, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	if p.tok.Kind != lexer.COMMA {
		return first, nil
	}
	items := []ast.Expr{first}
	for p.tok.Kind == lexer.COMMA {
		if err := p.next(); err != nil {
			return nil, err
		}
		e, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		items = append(items, e)
	}
	return &ast.SequenceExpr{Base: b, Items: items}, nil
}

func (p *Parser) parseExprSingle() (ast.Expr, error) {
	// Every form of nesting — parenthesized expressions, predicates, FLWOR
	// bodies, constructor content — recurses through here, so this is the
	// single chokepoint for the depth guard.
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	if p.tok.Kind == lexer.NAME {
		nxt := p.peekNext()
		switch p.tok.Text {
		case "for", "let":
			if nxt.Kind == lexer.VAR {
				return p.parseFLWOR()
			}
		case "some", "every":
			if nxt.Kind == lexer.VAR {
				return p.parseQuantified()
			}
		case "if":
			if nxt.Kind == lexer.LPAREN {
				return p.parseIf()
			}
		case "typeswitch":
			if nxt.Kind == lexer.LPAREN {
				return p.parseTypeswitch()
			}
		case "try":
			if nxt.Kind == lexer.LBRACE {
				return p.parseTryCatch()
			}
		}
	}
	return p.parseOr()
}

// parseTryCatch parses the exception-handling extension:
//
//	try { E } catch { E }
//	try { E } catch ($msg) { E }
//	try { E } catch ($code, $msg) { E }
func (p *Parser) parseTryCatch() (ast.Expr, error) {
	b := p.at()
	if err := p.next(); err != nil { // try
		return nil, err
	}
	if err := p.expect(lexer.LBRACE); err != nil {
		return nil, err
	}
	tryExpr, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(lexer.RBRACE); err != nil {
		return nil, err
	}
	if err := p.expectName("catch"); err != nil {
		return nil, err
	}
	tc := &ast.TryCatch{Base: b, Try: tryExpr}
	if p.tok.Kind == lexer.LPAREN {
		if err := p.next(); err != nil {
			return nil, err
		}
		if p.tok.Kind != lexer.VAR {
			return nil, p.errf("expected $variable in catch clause")
		}
		first := p.tok.Text
		if err := p.next(); err != nil {
			return nil, err
		}
		if p.tok.Kind == lexer.COMMA {
			if err := p.next(); err != nil {
				return nil, err
			}
			if p.tok.Kind != lexer.VAR {
				return nil, p.errf("expected second $variable in catch clause")
			}
			tc.CatchCodeVar = first
			tc.CatchVar = p.tok.Text
			if err := p.next(); err != nil {
				return nil, err
			}
		} else {
			tc.CatchVar = first
		}
		if err := p.expect(lexer.RPAREN); err != nil {
			return nil, err
		}
	}
	if err := p.expect(lexer.LBRACE); err != nil {
		return nil, err
	}
	catchExpr, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	tc.Catch = catchExpr
	return tc, p.expect(lexer.RBRACE)
}

func (p *Parser) parseFLWOR() (ast.Expr, error) {
	b := p.at()
	fl := &ast.FLWOR{Base: b}
	for p.tok.Kind == lexer.NAME && (p.tok.Text == "for" || p.tok.Text == "let") && p.peekNext().Kind == lexer.VAR {
		isFor := p.tok.Text == "for"
		if err := p.next(); err != nil {
			return nil, err
		}
		for {
			pos := p.tok.Pos
			if p.tok.Kind != lexer.VAR {
				return nil, p.errf("expected $variable in %s clause", map[bool]string{true: "for", false: "let"}[isFor])
			}
			name := p.tok.Text
			if err := p.next(); err != nil {
				return nil, err
			}
			if p.isName("as") { // optional type annotation, checked dynamically
				if err := p.next(); err != nil {
					return nil, err
				}
				if _, err := p.parseSequenceType(); err != nil {
					return nil, err
				}
			}
			if isFor {
				fc := ast.ForClause{Var: name, P: pos}
				if p.isName("at") {
					if err := p.next(); err != nil {
						return nil, err
					}
					if p.tok.Kind != lexer.VAR {
						return nil, p.errf("expected $variable after 'at'")
					}
					fc.PosVar = p.tok.Text
					if err := p.next(); err != nil {
						return nil, err
					}
				}
				if err := p.expectName("in"); err != nil {
					return nil, err
				}
				in, err := p.parseExprSingle()
				if err != nil {
					return nil, err
				}
				fc.In = in
				fl.Clauses = append(fl.Clauses, fc)
			} else {
				if err := p.expect(lexer.ASSIGN); err != nil {
					return nil, err
				}
				val, err := p.parseExprSingle()
				if err != nil {
					return nil, err
				}
				fl.Clauses = append(fl.Clauses, ast.LetClause{Var: name, Val: val, P: pos})
			}
			if p.tok.Kind != lexer.COMMA {
				break
			}
			if err := p.next(); err != nil {
				return nil, err
			}
		}
	}
	if p.isName("where") {
		if err := p.next(); err != nil {
			return nil, err
		}
		w, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		fl.Where = w
	}
	if p.isName("stable") {
		fl.Stable = true
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	if p.isName("order") {
		if err := p.next(); err != nil {
			return nil, err
		}
		if err := p.expectName("by"); err != nil {
			return nil, err
		}
		for {
			key, err := p.parseExprSingle()
			if err != nil {
				return nil, err
			}
			spec := ast.OrderSpec{Key: key, EmptyLeast: true}
			if p.isName("ascending") {
				if err := p.next(); err != nil {
					return nil, err
				}
			} else if p.isName("descending") {
				spec.Descending = true
				if err := p.next(); err != nil {
					return nil, err
				}
			}
			if p.isName("empty") {
				if err := p.next(); err != nil {
					return nil, err
				}
				switch {
				case p.isName("least"):
					spec.EmptyLeast = true
				case p.isName("greatest"):
					spec.EmptyLeast = false
				default:
					return nil, p.errf("expected 'least' or 'greatest'")
				}
				if err := p.next(); err != nil {
					return nil, err
				}
			}
			fl.OrderBy = append(fl.OrderBy, spec)
			if p.tok.Kind != lexer.COMMA {
				break
			}
			if err := p.next(); err != nil {
				return nil, err
			}
		}
	}
	if err := p.expectName("return"); err != nil {
		return nil, err
	}
	ret, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	fl.Return = ret
	if len(fl.Clauses) == 0 {
		return nil, p.errf("FLWOR expression has no for/let clauses")
	}
	return fl, nil
}

func (p *Parser) parseQuantified() (ast.Expr, error) {
	b := p.at()
	q := &ast.Quantified{Base: b, Every: p.tok.Text == "every"}
	if err := p.next(); err != nil {
		return nil, err
	}
	for {
		if p.tok.Kind != lexer.VAR {
			return nil, p.errf("expected $variable in quantified expression")
		}
		fc := ast.ForClause{Var: p.tok.Text, P: p.tok.Pos}
		if err := p.next(); err != nil {
			return nil, err
		}
		if err := p.expectName("in"); err != nil {
			return nil, err
		}
		in, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		fc.In = in
		q.Vars = append(q.Vars, fc)
		if p.tok.Kind != lexer.COMMA {
			break
		}
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	if err := p.expectName("satisfies"); err != nil {
		return nil, err
	}
	sat, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	q.Satisfy = sat
	return q, nil
}

func (p *Parser) parseIf() (ast.Expr, error) {
	b := p.at()
	if err := p.next(); err != nil { // if
		return nil, err
	}
	if err := p.expect(lexer.LPAREN); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(lexer.RPAREN); err != nil {
		return nil, err
	}
	if err := p.expectName("then"); err != nil {
		return nil, err
	}
	then, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	if err := p.expectName("else"); err != nil {
		return nil, err
	}
	els, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	return &ast.IfExpr{Base: b, Cond: cond, Then: then, Else: els}, nil
}

func (p *Parser) parseTypeswitch() (ast.Expr, error) {
	b := p.at()
	if err := p.next(); err != nil { // typeswitch
		return nil, err
	}
	if err := p.expect(lexer.LPAREN); err != nil {
		return nil, err
	}
	op, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(lexer.RPAREN); err != nil {
		return nil, err
	}
	ts := &ast.Typeswitch{Base: b, Operand: op}
	for p.isName("case") {
		if err := p.next(); err != nil {
			return nil, err
		}
		var c ast.TypeswitchCase
		if p.tok.Kind == lexer.VAR {
			c.Var = p.tok.Text
			if err := p.next(); err != nil {
				return nil, err
			}
			if err := p.expectName("as"); err != nil {
				return nil, err
			}
		}
		t, err := p.parseSequenceType()
		if err != nil {
			return nil, err
		}
		c.Type = t
		if err := p.expectName("return"); err != nil {
			return nil, err
		}
		ret, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		c.Ret = ret
		ts.Cases = append(ts.Cases, c)
	}
	if len(ts.Cases) == 0 {
		return nil, p.errf("typeswitch requires at least one case")
	}
	if err := p.expectName("default"); err != nil {
		return nil, err
	}
	if p.tok.Kind == lexer.VAR {
		ts.DefaultVar = p.tok.Text
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	if err := p.expectName("return"); err != nil {
		return nil, err
	}
	def, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	ts.Default = def
	return ts, nil
}

func (p *Parser) parseOr() (ast.Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.isName("or") {
		b := p.at()
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &ast.Binary{Base: b, Kind: ast.OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseAnd() (ast.Expr, error) {
	l, err := p.parseComparison()
	if err != nil {
		return nil, err
	}
	for p.isName("and") {
		b := p.at()
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.parseComparison()
		if err != nil {
			return nil, err
		}
		l = &ast.Binary{Base: b, Kind: ast.OpAnd, L: l, R: r}
	}
	return l, nil
}

var valueCompOps = map[string]xdm.CompareOp{
	"eq": xdm.OpEq, "ne": xdm.OpNe, "lt": xdm.OpLt,
	"le": xdm.OpLe, "gt": xdm.OpGt, "ge": xdm.OpGe,
}

var generalCompOps = map[lexer.Kind]xdm.CompareOp{
	lexer.EQ: xdm.OpEq, lexer.NE: xdm.OpNe, lexer.LT: xdm.OpLt,
	lexer.LE: xdm.OpLe, lexer.GT: xdm.OpGt, lexer.GE: xdm.OpGe,
}

func (p *Parser) parseComparison() (ast.Expr, error) {
	l, err := p.parseRange()
	if err != nil {
		return nil, err
	}
	b := p.at()
	// Value comparisons (singleton).
	if p.tok.Kind == lexer.NAME {
		if op, ok := valueCompOps[p.tok.Text]; ok {
			if err := p.next(); err != nil {
				return nil, err
			}
			r, err := p.parseRange()
			if err != nil {
				return nil, err
			}
			return &ast.Binary{Base: b, Kind: ast.OpValueComp, Cmp: op, L: l, R: r}, nil
		}
		if p.tok.Text == "is" {
			if err := p.next(); err != nil {
				return nil, err
			}
			r, err := p.parseRange()
			if err != nil {
				return nil, err
			}
			return &ast.Binary{Base: b, Kind: ast.OpNodeIs, L: l, R: r}, nil
		}
	}
	// Node order comparisons.
	if p.tok.Kind == lexer.LTLT || p.tok.Kind == lexer.GTGT {
		kind := ast.OpNodeBefore
		if p.tok.Kind == lexer.GTGT {
			kind = ast.OpNodeAfter
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.parseRange()
		if err != nil {
			return nil, err
		}
		return &ast.Binary{Base: b, Kind: kind, L: l, R: r}, nil
	}
	// General comparisons (existential).
	if op, ok := generalCompOps[p.tok.Kind]; ok {
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.parseRange()
		if err != nil {
			return nil, err
		}
		return &ast.Binary{Base: b, Kind: ast.OpGeneralComp, Cmp: op, L: l, R: r}, nil
	}
	return l, nil
}

func (p *Parser) parseRange() (ast.Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if p.isName("to") {
		b := p.at()
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &ast.RangeExpr{Base: b, Lo: l, Hi: r}, nil
	}
	return l, nil
}

func (p *Parser) parseAdditive() (ast.Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.tok.Kind == lexer.PLUS || p.tok.Kind == lexer.MINUS {
		b := p.at()
		op := xdm.OpAdd
		if p.tok.Kind == lexer.MINUS {
			op = xdm.OpSub
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &ast.Binary{Base: b, Kind: ast.OpArith, Arith: op, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseMultiplicative() (ast.Expr, error) {
	l, err := p.parseUnion()
	if err != nil {
		return nil, err
	}
	for {
		var op xdm.ArithOp
		switch {
		case p.tok.Kind == lexer.STAR:
			op = xdm.OpMul
		case p.isName("div"):
			op = xdm.OpDiv
		case p.isName("idiv"):
			op = xdm.OpIDiv
		case p.isName("mod"):
			op = xdm.OpMod
		default:
			return l, nil
		}
		b := p.at()
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.parseUnion()
		if err != nil {
			return nil, err
		}
		l = &ast.Binary{Base: b, Kind: ast.OpArith, Arith: op, L: l, R: r}
	}
}

func (p *Parser) parseUnion() (ast.Expr, error) {
	l, err := p.parseIntersectExcept()
	if err != nil {
		return nil, err
	}
	for p.tok.Kind == lexer.PIPE || p.isName("union") {
		b := p.at()
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.parseIntersectExcept()
		if err != nil {
			return nil, err
		}
		l = &ast.Binary{Base: b, Kind: ast.OpUnion, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseIntersectExcept() (ast.Expr, error) {
	l, err := p.parseInstanceOf()
	if err != nil {
		return nil, err
	}
	for p.isName("intersect") || p.isName("except") {
		b := p.at()
		kind := ast.OpIntersect
		if p.tok.Text == "except" {
			kind = ast.OpExcept
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.parseInstanceOf()
		if err != nil {
			return nil, err
		}
		l = &ast.Binary{Base: b, Kind: kind, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseInstanceOf() (ast.Expr, error) {
	l, err := p.parseTreat()
	if err != nil {
		return nil, err
	}
	if p.isName("instance") && p.peekNext().Kind == lexer.NAME && p.peekNext().Text == "of" {
		b := p.at()
		if err := p.next(); err != nil {
			return nil, err
		}
		if err := p.expectName("of"); err != nil {
			return nil, err
		}
		t, err := p.parseSequenceType()
		if err != nil {
			return nil, err
		}
		return &ast.InstanceOf{Base: b, Operand: l, Type: t}, nil
	}
	return l, nil
}

func (p *Parser) parseTreat() (ast.Expr, error) {
	l, err := p.parseCastable()
	if err != nil {
		return nil, err
	}
	if p.isName("treat") && p.peekNext().Text == "as" {
		b := p.at()
		if err := p.next(); err != nil {
			return nil, err
		}
		if err := p.expectName("as"); err != nil {
			return nil, err
		}
		t, err := p.parseSequenceType()
		if err != nil {
			return nil, err
		}
		return &ast.TreatAs{Base: b, Operand: l, Type: t}, nil
	}
	return l, nil
}

func (p *Parser) parseCastable() (ast.Expr, error) {
	l, err := p.parseCast()
	if err != nil {
		return nil, err
	}
	if p.isName("castable") && p.peekNext().Text == "as" {
		b := p.at()
		if err := p.next(); err != nil {
			return nil, err
		}
		if err := p.expectName("as"); err != nil {
			return nil, err
		}
		name, opt, err := p.parseSingleType()
		if err != nil {
			return nil, err
		}
		return &ast.CastableAs{Base: b, Operand: l, TypeName: name, Optional: opt}, nil
	}
	return l, nil
}

func (p *Parser) parseCast() (ast.Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	if p.isName("cast") && p.peekNext().Text == "as" {
		b := p.at()
		if err := p.next(); err != nil {
			return nil, err
		}
		if err := p.expectName("as"); err != nil {
			return nil, err
		}
		name, opt, err := p.parseSingleType()
		if err != nil {
			return nil, err
		}
		return &ast.CastAs{Base: b, Operand: l, TypeName: name, Optional: opt}, nil
	}
	return l, nil
}

func (p *Parser) parseUnary() (ast.Expr, error) {
	minus := false
	seen := false
	b := p.at()
	for p.tok.Kind == lexer.PLUS || p.tok.Kind == lexer.MINUS {
		if p.tok.Kind == lexer.MINUS {
			minus = !minus
		}
		seen = true
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	operand, err := p.parsePath()
	if err != nil {
		return nil, err
	}
	if !seen {
		return operand, nil
	}
	return &ast.Unary{Base: b, Minus: minus, Operand: operand}, nil
}
