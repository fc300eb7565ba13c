package parser

// update.go parses the FLUX-style update sublanguage:
//
//	UpdateProgram ::= Prolog Stmts
//	Stmts         ::= Stmt (";" Stmt)* ";"?
//	Stmt          ::= "insert" ExprSingle ("into"|"before"|"after") ExprSingle
//	                | "delete" ExprSingle
//	                | "replace" ExprSingle "with" ExprSingle
//	                | "rename" ExprSingle "as" ExprSingle
//	                | "for" "$"VarName "in" ExprSingle ("where" ExprSingle)?
//	                  "return" Stmt
//	                | "(" Stmts ")"
//
// The statement keywords are context-sensitive names, like every other
// keyword in this grammar: `delete` begins a statement only in statement
// position, and `insert $x into $y` works because an adjacent name can
// never continue a finished ExprSingle. Target and content positions hold
// ordinary expressions, so paths, constructors, FLWORs and user-function
// calls from the shared prolog all compose with updates.

import (
	"lopsided/internal/xquery/ast"
	"lopsided/internal/xquery/lexer"
)

// ParseUpdate parses a complete update program: a main-module prolog
// (namespace/function/variable declarations, shared with query programs)
// followed by a semicolon-sequenced statement list, held in Module.Stmts.
func ParseUpdate(src string) (*ast.Module, error) { return parseModule(src, true) }

// parseStmtSeq parses one or more statements separated by semicolons. A
// trailing semicolon before EOF or ')' is accepted.
func (p *Parser) parseStmtSeq() ([]ast.UpdateStmt, error) {
	var out []ast.UpdateStmt
	for {
		st, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		out = append(out, st)
		if p.tok.Kind != lexer.SEMI {
			return out, nil
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		if p.tok.Kind == lexer.EOF || p.tok.Kind == lexer.RPAREN {
			return out, nil
		}
	}
}

func (p *Parser) parseStmt() (ast.UpdateStmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	pos := p.tok.Pos
	if p.tok.Kind == lexer.LPAREN {
		if err := p.next(); err != nil {
			return nil, err
		}
		stmts, err := p.parseStmtSeq()
		if err != nil {
			return nil, err
		}
		if err := p.expect(lexer.RPAREN); err != nil {
			return nil, err
		}
		return &ast.BlockStmt{P: pos, Stmts: stmts}, nil
	}
	if p.tok.Kind != lexer.NAME {
		return nil, p.errf("expected an update statement (insert/delete/replace/rename/for), found %s %q",
			p.tok.Kind, p.tok.Text)
	}
	switch p.tok.Text {
	case "insert":
		return p.parseInsertStmt(pos)
	case "delete":
		if err := p.next(); err != nil {
			return nil, err
		}
		target, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		return &ast.DeleteStmt{P: pos, Target: target}, nil
	case "replace":
		if err := p.next(); err != nil {
			return nil, err
		}
		target, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		if err := p.expectName("with"); err != nil {
			return nil, err
		}
		src, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		return &ast.ReplaceStmt{P: pos, Target: target, Source: src}, nil
	case "rename":
		if err := p.next(); err != nil {
			return nil, err
		}
		target, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		if err := p.expectName("as"); err != nil {
			return nil, err
		}
		name, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		return &ast.RenameStmt{P: pos, Target: target, Name: name}, nil
	case "for":
		return p.parseForStmt(pos)
	}
	return nil, p.errf("expected an update statement (insert/delete/replace/rename/for), found %q", p.tok.Text)
}

func (p *Parser) parseInsertStmt(pos ast.Pos) (*ast.InsertStmt, error) {
	if err := p.next(); err != nil { // consume 'insert'
		return nil, err
	}
	src, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	var placement ast.InsertPlacement
	switch {
	case p.isName("into"):
		placement = ast.InsertInto
	case p.isName("before"):
		placement = ast.InsertBefore
	case p.isName("after"):
		placement = ast.InsertAfter
	default:
		return nil, p.errf("expected 'into', 'before' or 'after' in insert statement, found %s %q",
			p.tok.Kind, p.tok.Text)
	}
	if err := p.next(); err != nil {
		return nil, err
	}
	target, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	return &ast.InsertStmt{P: pos, Source: src, Placement: placement, Target: target}, nil
}

func (p *Parser) parseForStmt(pos ast.Pos) (*ast.ForStmt, error) {
	if err := p.next(); err != nil { // consume 'for'
		return nil, err
	}
	if p.tok.Kind != lexer.VAR {
		return nil, p.errf("expected $variable after 'for' in update statement")
	}
	name := p.tok.Text
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
	var where ast.Expr
	if p.isName("where") {
		if err := p.next(); err != nil {
			return nil, err
		}
		if where, err = p.parseExprSingle(); err != nil {
			return nil, err
		}
	}
	if err := p.expectName("return"); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	st := &ast.ForStmt{P: pos, Var: name, In: in, Where: where}
	if blk, ok := body.(*ast.BlockStmt); ok {
		st.Body = blk.Stmts
	} else {
		st.Body = []ast.UpdateStmt{body}
	}
	return st, nil
}
