// Package parser implements a hand-written lexer and recursive-descent
// parser for the NDlog surface syntax used in the paper:
//
//	materialize(link, infinity, infinity, keys(1,2)).
//	SP1 path(@S,@D,@D,P,C) :- #link(@S,@D,C), P := f_concatPath(S, nil).
//	SP3 spCost(@S,@D,min<C>) :- path(@S,@D,@Z,P,C).
//	link(a,b,5).
//	query shortestPath(@S,@D,P,C).
//	watch(path).
//
// Rule labels may be written "SP1 head :- body." or "SP1: head :- body.".
// Both "=" and ":=" denote assignment; equality comparison is "==".
// Constants beginning with a lower-case letter denote addresses; "nil"
// denotes the empty list.
//
// Parse returns a freshly allocated Program owning all of its nodes;
// nothing in the result aliases the source string, so callers may parse
// many programs from reused buffers. See internal/ast for the mutation
// rules downstream of parsing.
package parser

import (
	"fmt"
	"strconv"

	"ndlog/internal/ast"
	"ndlog/internal/val"
)

// Parse parses a complete NDlog program.
func Parse(src string) (*ast.Program, error) {
	p := &parser{lex: newLexer(src)}
	if err := p.fill(); err != nil {
		return nil, err
	}
	return p.parseProgram()
}

// ParseRule parses a single rule (ending with '.'), for tests and tools.
func ParseRule(src string) (*ast.Rule, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(prog.Rules) != 1 {
		return nil, fmt.Errorf("parser: expected exactly one rule, got %d", len(prog.Rules))
	}
	return prog.Rules[0], nil
}

type parser struct {
	lex *lexer
	buf [3]token // lookahead window
	n   int      // tokens buffered
}

func (p *parser) fill() error {
	for p.n < len(p.buf) {
		t, err := p.lex.next()
		if err != nil {
			return err
		}
		p.buf[p.n] = t
		p.n++
	}
	return nil
}

func (p *parser) peek(i int) token { return p.buf[i] }

func (p *parser) advance() error {
	copy(p.buf[:], p.buf[1:])
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.buf[len(p.buf)-1] = t
	return nil
}

func (p *parser) expect(k tokKind) (token, error) {
	t := p.buf[0]
	if t.kind != k {
		return t, p.errorf(t, "expected %s, found %s", k, t)
	}
	return t, p.advance()
}

func (p *parser) errorf(t token, format string, args ...any) error {
	return &Error{Line: t.line, Col: t.col, Msg: fmt.Sprintf(format, args...)}
}

func pos(t token) ast.Pos { return ast.Pos{Line: t.line, Col: t.col} }

func (p *parser) parseProgram() (*ast.Program, error) {
	prog := &ast.Program{}
	for p.peek(0).kind != tokEOF {
		if err := p.parseStatement(prog); err != nil {
			return nil, err
		}
	}
	return prog, nil
}

func (p *parser) parseStatement(prog *ast.Program) error {
	t := p.peek(0)
	if t.kind == tokIdent {
		switch t.text {
		case "materialize":
			if p.peek(1).kind == tokLParen {
				return p.parseMaterialize(prog)
			}
		case "watch":
			if p.peek(1).kind == tokLParen {
				return p.parseWatch(prog)
			}
		case "query":
			if p.peek(1).kind != tokLParen {
				return p.parseQuery(prog)
			}
		}
	}
	// "Query: atom." with capital Q parses as Var.
	if t.kind == tokVar && t.text == "Query" && p.peek(1).kind == tokColon {
		if err := p.advance(); err != nil {
			return err
		}
		if err := p.advance(); err != nil {
			return err
		}
		return p.finishQuery(prog)
	}
	return p.parseRuleOrFact(prog)
}

func (p *parser) parseMaterialize(prog *ast.Program) error {
	declPos := pos(p.peek(0))
	if err := p.advance(); err != nil { // "materialize"
		return err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return err
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	if _, err := p.expect(tokComma); err != nil {
		return err
	}
	lifetime, err := p.parseLifetimeOrSize()
	if err != nil {
		return err
	}
	if _, err := p.expect(tokComma); err != nil {
		return err
	}
	size, err := p.parseLifetimeOrSize()
	if err != nil {
		return err
	}
	if _, err := p.expect(tokComma); err != nil {
		return err
	}
	kw, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	if kw.text != "keys" {
		return p.errorf(kw, "expected keys(...), found %q", kw.text)
	}
	if _, err := p.expect(tokLParen); err != nil {
		return err
	}
	var keys []int
	for p.peek(0).kind != tokRParen {
		nt, err := p.expect(tokInt)
		if err != nil {
			return err
		}
		k, err := strconv.Atoi(nt.text)
		if err != nil || k < 1 {
			return p.errorf(nt, "invalid key position %q (keys are 1-based)", nt.text)
		}
		keys = append(keys, k-1)
		if p.peek(0).kind == tokComma {
			if err := p.advance(); err != nil {
				return err
			}
		}
	}
	if _, err := p.expect(tokRParen); err != nil {
		return err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return err
	}
	if _, err := p.expect(tokDot); err != nil {
		return err
	}
	decl := &ast.TableDecl{Name: name.text, Keys: keys, Pos: declPos}
	decl.Lifetime = lifetime
	if size >= 0 {
		decl.MaxSize = int(size)
	}
	prog.Materialized = append(prog.Materialized, decl)
	return nil
}

// parseLifetimeOrSize parses a number or the keyword "infinity",
// returning -1 for infinity.
func (p *parser) parseLifetimeOrSize() (float64, error) {
	t := p.peek(0)
	switch t.kind {
	case tokIdent:
		if t.text == "infinity" {
			return -1, p.advance()
		}
		return 0, p.errorf(t, "expected number or infinity, found %q", t.text)
	case tokInt, tokFloat:
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return 0, p.errorf(t, "bad number %q", t.text)
		}
		return v, p.advance()
	}
	return 0, p.errorf(t, "expected number or infinity, found %s", t)
}

func (p *parser) parseWatch(prog *ast.Program) error {
	if err := p.advance(); err != nil { // "watch"
		return err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return err
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return err
	}
	if _, err := p.expect(tokDot); err != nil {
		return err
	}
	prog.Watches = append(prog.Watches, name.text)
	return nil
}

func (p *parser) parseQuery(prog *ast.Program) error {
	if err := p.advance(); err != nil { // "query"
		return err
	}
	if p.peek(0).kind == tokColon {
		if err := p.advance(); err != nil {
			return err
		}
	}
	return p.finishQuery(prog)
}

func (p *parser) finishQuery(prog *ast.Program) error {
	atom, err := p.parseAtom(true)
	if err != nil {
		return err
	}
	if _, err := p.expect(tokDot); err != nil {
		return err
	}
	if prog.Query != nil {
		return fmt.Errorf("parser: multiple query statements")
	}
	prog.Query = atom
	return nil
}

// parseRuleOrFact handles "[label[:]] head :- body." and ground facts
// "pred(const,...)".
func (p *parser) parseRuleOrFact(prog *ast.Program) error {
	label := ""
	t := p.peek(0)
	stmtPos := pos(t)
	if t.kind == tokIdent || t.kind == tokVar {
		next := p.peek(1)
		switch {
		case next.kind == tokColon:
			label = t.text
			if err := p.advance(); err != nil {
				return err
			}
			if err := p.advance(); err != nil {
				return err
			}
		case next.kind == tokIdent && p.peek(2).kind == tokLParen,
			next.kind == tokHash:
			label = t.text
			if err := p.advance(); err != nil {
				return err
			}
		}
	}
	head, err := p.parseAtom(true)
	if err != nil {
		return err
	}
	switch p.peek(0).kind {
	case tokImplies:
		if err := p.advance(); err != nil {
			return err
		}
		rule := &ast.Rule{Label: label, Head: *head, Pos: stmtPos}
		for {
			term, err := p.parseTerm()
			if err != nil {
				return err
			}
			rule.Body = append(rule.Body, term)
			if p.peek(0).kind == tokComma {
				if err := p.advance(); err != nil {
					return err
				}
				continue
			}
			break
		}
		if _, err := p.expect(tokDot); err != nil {
			return err
		}
		prog.Rules = append(prog.Rules, rule)
		return nil
	case tokDot:
		if err := p.advance(); err != nil {
			return err
		}
		if label != "" {
			return fmt.Errorf("parser: fact %s must not carry a label %q", head.Pred, label)
		}
		tuple, err := atomToFact(head)
		if err != nil {
			return err
		}
		prog.Facts = append(prog.Facts, tuple)
		prog.FactPos = append(prog.FactPos, stmtPos)
		return nil
	}
	return p.errorf(p.peek(0), "expected :- or . after %s", head.Pred)
}

func atomToFact(a *ast.Atom) (val.Tuple, error) {
	fields := make([]val.Value, len(a.Args))
	for i, e := range a.Args {
		v, err := constEval(e)
		if err != nil {
			return val.Tuple{}, fmt.Errorf("fact %s: argument %d: %w", a.Pred, i+1, err)
		}
		fields[i] = v
	}
	return val.NewTuple(a.Pred, fields...), nil
}

func constEval(e ast.Expr) (val.Value, error) {
	switch x := e.(type) {
	case *ast.Const:
		return x.Value, nil
	case *ast.BinOp:
		l, err := constEval(x.L)
		if err != nil {
			return val.Nil, err
		}
		r, err := constEval(x.R)
		if err != nil {
			return val.Nil, err
		}
		if x.Op == ast.OpSub && l.Kind() == val.KindInt && r.Kind() == val.KindInt {
			return val.NewInt(l.Int() - r.Int()), nil
		}
		return val.Nil, fmt.Errorf("non-constant expression %s", e)
	}
	return val.Nil, fmt.Errorf("non-constant expression %s", e)
}

// parseAtom parses "[#]pred(arg, ...)". Head atoms (head=true) may contain
// aggregate arguments like "min<C>".
func (p *parser) parseAtom(head bool) (*ast.Atom, error) {
	link := false
	atomPos := pos(p.peek(0))
	if p.peek(0).kind == tokHash {
		link = true
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	atom := &ast.Atom{Pred: name.text, Link: link, Pos: atomPos}
	for p.peek(0).kind != tokRParen {
		arg, err := p.parseAtomArg(head)
		if err != nil {
			return nil, err
		}
		atom.Args = append(atom.Args, arg)
		if p.peek(0).kind == tokComma {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	return atom, nil
}

func (p *parser) parseAtomArg(head bool) (ast.Expr, error) {
	t := p.peek(0)
	// Aggregate argument: min<C>, max<C>, count<C>, sum<C>.
	if head && t.kind == tokIdent && p.peek(1).kind == tokLt {
		if f, ok := ast.AggFuncByName(t.text); ok {
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.advance(); err != nil { // '<'
				return nil, err
			}
			v, err := p.expect(tokVar)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokGt); err != nil {
				return nil, err
			}
			return &ast.Agg{Func: f, Var: v.text, Pos: pos(t)}, nil
		}
	}
	return p.parseExpr()
}

// parseTerm parses one body term: atom, assignment, or selection.
func (p *parser) parseTerm() (ast.Term, error) {
	t := p.peek(0)
	if t.kind == tokHash {
		a, err := p.parseAtom(false)
		if err != nil {
			return nil, err
		}
		return a, nil
	}
	if t.kind == tokIdent && p.peek(1).kind == tokLParen {
		// Could be a predicate atom or a boolean function call used as a
		// selection (e.g. f_member(P,S) == false). Functions begin "f_".
		if !isFuncName(t.text) {
			a, err := p.parseAtom(false)
			if err != nil {
				return nil, err
			}
			return a, nil
		}
	}
	if t.kind == tokVar && p.peek(1).kind == tokAssign {
		name := t.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &ast.Assign{Var: name, Expr: e, Pos: pos(t)}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &ast.Select{Cond: e, Pos: pos(t)}, nil
}

func isFuncName(s string) bool { return len(s) > 2 && s[0] == 'f' && s[1] == '_' }

// Expression grammar (highest precedence last):
//
//	expr   := and ('||' and)*
//	and    := cmp ('&&' cmp)*
//	cmp    := add (relop add)?
//	add    := mul (('+'|'-') mul)*
//	mul    := unary (('*'|'/'|'%') unary)*
//	unary  := '-' unary | primary
func (p *parser) parseExpr() (ast.Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.peek(0).kind == tokOrOr {
		opPos := pos(p.peek(0))
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &ast.BinOp{Op: ast.OpOr, L: l, R: r, Pos: opPos}
	}
	return l, nil
}

func (p *parser) parseAnd() (ast.Expr, error) {
	l, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.peek(0).kind == tokAndAnd {
		opPos := pos(p.peek(0))
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		l = &ast.BinOp{Op: ast.OpAnd, L: l, R: r, Pos: opPos}
	}
	return l, nil
}

var relops = map[tokKind]ast.Op{
	tokEqEq: ast.OpEq, tokNe: ast.OpNe, tokLt: ast.OpLt,
	tokLe: ast.OpLe, tokGt: ast.OpGt, tokGe: ast.OpGe,
}

func (p *parser) parseCmp() (ast.Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if op, ok := relops[p.peek(0).kind]; ok {
		opPos := pos(p.peek(0))
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &ast.BinOp{Op: op, L: l, R: r, Pos: opPos}, nil
	}
	return l, nil
}

func (p *parser) parseAdd() (ast.Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		var op ast.Op
		switch p.peek(0).kind {
		case tokPlus:
			op = ast.OpAdd
		case tokMinus:
			op = ast.OpSub
		default:
			return l, nil
		}
		opPos := pos(p.peek(0))
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = &ast.BinOp{Op: op, L: l, R: r, Pos: opPos}
	}
}

func (p *parser) parseMul() (ast.Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op ast.Op
		switch p.peek(0).kind {
		case tokStar:
			op = ast.OpMul
		case tokSlash:
			op = ast.OpDiv
		case tokPercent:
			op = ast.OpMod
		default:
			return l, nil
		}
		opPos := pos(p.peek(0))
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &ast.BinOp{Op: op, L: l, R: r, Pos: opPos}
	}
}

func (p *parser) parseUnary() (ast.Expr, error) {
	if p.peek(0).kind == tokMinus {
		minusPos := pos(p.peek(0))
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if c, ok := e.(*ast.Const); ok {
			switch c.Value.Kind() {
			case val.KindInt:
				return &ast.Const{Value: val.NewInt(-c.Value.Int()), Pos: minusPos}, nil
			case val.KindFloat:
				return &ast.Const{Value: val.NewFloat(-c.Value.Float()), Pos: minusPos}, nil
			}
		}
		return &ast.BinOp{Op: ast.OpSub, L: &ast.Const{Value: val.NewInt(0), Pos: minusPos}, R: e, Pos: minusPos}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (ast.Expr, error) {
	t := p.peek(0)
	switch t.kind {
	case tokInt:
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf(t, "bad integer %q", t.text)
		}
		return &ast.Const{Value: val.NewInt(n), Pos: pos(t)}, p.advance()
	case tokFloat:
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errorf(t, "bad float %q", t.text)
		}
		return &ast.Const{Value: val.NewFloat(f), Pos: pos(t)}, p.advance()
	case tokString:
		return &ast.Const{Value: val.NewString(t.text), Pos: pos(t)}, p.advance()
	case tokVar:
		return &ast.Var{Name: t.text, Pos: pos(t)}, p.advance()
	case tokAt:
		if err := p.advance(); err != nil {
			return nil, err
		}
		n := p.peek(0)
		switch n.kind {
		case tokVar:
			return &ast.Var{Name: n.text, Loc: true, Pos: pos(t)}, p.advance()
		case tokIdent:
			return &ast.Const{Value: val.NewAddr(n.text), Pos: pos(t)}, p.advance()
		}
		return nil, p.errorf(n, "expected variable or address after @, found %s", n)
	case tokLBracket:
		if err := p.advance(); err != nil {
			return nil, err
		}
		var elems []ast.Expr
		for p.peek(0).kind != tokRBracket {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			elems = append(elems, e)
			if p.peek(0).kind == tokComma {
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
		}
		if err := p.advance(); err != nil { // ']'
			return nil, err
		}
		// A list of constants folds to a constant list; otherwise it
		// becomes an f_list call evaluated at runtime.
		vs := make([]val.Value, 0, len(elems))
		allConst := true
		for _, e := range elems {
			c, ok := e.(*ast.Const)
			if !ok {
				allConst = false
				break
			}
			vs = append(vs, c.Value)
		}
		if allConst {
			return &ast.Const{Value: val.NewList(vs...), Pos: pos(t)}, nil
		}
		return &ast.Call{Name: "f_list", Args: elems, Pos: pos(t)}, nil
	case tokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case tokIdent:
		name := t.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		switch name {
		case "nil":
			return &ast.Const{Value: val.NewList(), Pos: pos(t)}, nil
		case "true":
			return &ast.Const{Value: val.NewBool(true), Pos: pos(t)}, nil
		case "false":
			return &ast.Const{Value: val.NewBool(false), Pos: pos(t)}, nil
		case "infinity":
			return &ast.Const{Value: val.NewFloat(1e18), Pos: pos(t)}, nil
		}
		if p.peek(0).kind == tokLParen {
			if err := p.advance(); err != nil {
				return nil, err
			}
			call := &ast.Call{Name: name, Pos: pos(t)}
			for p.peek(0).kind != tokRParen {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
				if p.peek(0).kind == tokComma {
					if err := p.advance(); err != nil {
						return nil, err
					}
				}
			}
			if err := p.advance(); err != nil { // ')'
				return nil, err
			}
			return call, nil
		}
		// Bare lower-case identifier: address constant (paper convention).
		return &ast.Const{Value: val.NewAddr(name), Pos: pos(t)}, nil
	}
	return nil, p.errorf(t, "unexpected token %s in expression", t)
}
