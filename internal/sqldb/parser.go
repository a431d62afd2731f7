package sqldb

import (
	"fmt"
	"strconv"
	"strings"
)

type parser struct {
	toks   []token
	pos    int
	params int // running count of `?` placeholders
}

// Parse parses a single SQL statement (a trailing semicolon is allowed).
func Parse(sql string) (Statement, error) {
	stmts, err := ParseAll(sql)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("sqldb: expected one statement, got %d", len(stmts))
	}
	return stmts[0], nil
}

// ParseAll parses a semicolon-separated script.
func ParseAll(sql string) ([]Statement, error) {
	toks, err := lexAll(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var stmts []Statement
	for {
		for p.acceptOp(";") {
		}
		if p.peek().kind == tkEOF {
			return stmts, nil
		}
		s, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
		if !p.acceptOp(";") && p.peek().kind != tkEOF {
			return nil, p.errHere("expected ';' or end of input")
		}
	}
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) peek2() token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}
func (p *parser) advance() token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) errHere(format string, args ...any) error {
	t := p.peek()
	what := t.text
	if t.kind == tkEOF {
		what = "end of input"
	}
	return fmt.Errorf("sqldb: parse error near %q (offset %d): %s", what, t.pos, fmt.Sprintf(format, args...))
}

func (p *parser) acceptKw(kw string) bool {
	if t := p.peek(); t.kind == tkKeyword && t.text == kw {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return p.errHere("expected %s", kw)
	}
	return nil
}

func (p *parser) acceptOp(op string) bool {
	if t := p.peek(); t.kind == tkOp && t.text == op {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return p.errHere("expected %q", op)
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind == tkIdent {
		p.advance()
		return t.text, nil
	}
	return "", p.errHere("expected identifier")
}

func (p *parser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.kind == tkKeyword {
		switch t.text {
		case "SELECT":
			return p.parseSelect()
		case "CREATE":
			return p.parseCreate()
		case "INSERT":
			return p.parseInsert()
		case "DELETE":
			return p.parseDelete()
		}
	}
	return nil, p.errHere("expected SELECT, CREATE, INSERT or DELETE")
}

// parseType accepts an optional column type and returns its affinity.
func (p *parser) parseType() Kind {
	switch {
	case p.acceptKw("INTEGER"), p.acceptKw("INT"):
		return KindInt
	case p.acceptKw("TEXT"):
		return KindText
	}
	return KindNull
}

func (p *parser) parseCreate() (Statement, error) {
	p.advance() // CREATE
	switch {
	case p.acceptKw("TABLE"):
		st := &CreateTableStmt{}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		st.Name = name
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			st.Cols = append(st.Cols, ColumnDef{Name: col, Type: p.parseType()})
			if p.acceptOp(",") {
				continue
			}
			break
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return st, nil

	case p.acceptKw("VIEW"):
		st := &CreateViewStmt{}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		st.Name = name
		if err := p.expectKw("AS"); err != nil {
			return nil, err
		}
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		st.Select = sel
		return st, nil
	}
	return nil, p.errHere("expected TABLE or VIEW after CREATE")
}

func (p *parser) parseInsert() (Statement, error) {
	p.advance() // INSERT
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	st := &InsertStmt{}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.Table = name
	if err := p.expectKw("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.acceptOp(",") {
				continue
			}
			break
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, row)
		if p.acceptOp(",") {
			continue
		}
		break
	}
	return st, nil
}

func (p *parser) parseDelete() (Statement, error) {
	p.advance() // DELETE
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	st := &DeleteStmt{}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.Table = name
	if p.acceptKw("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	return st, nil
}

// parseSelect parses SELECT ... [FROM ... WHERE ... GROUP BY ... HAVING ...
// ORDER BY ... LIMIT ...].
func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	st := &SelectStmt{Distinct: p.acceptKw("DISTINCT")}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		st.Items = append(st.Items, item)
		if p.acceptOp(",") {
			continue
		}
		break
	}
	if p.acceptKw("FROM") {
		from, err := p.parseTableExpr()
		if err != nil {
			return nil, err
		}
		st.From = from
	}
	if p.acceptKw("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	if p.acceptKw("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.GroupBy = append(st.GroupBy, e)
			if p.acceptOp(",") {
				continue
			}
			break
		}
	}
	if p.acceptKw("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Having = e
	}
	if p.acceptKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			key := OrderKey{Expr: e}
			if p.acceptKw("DESC") {
				key.Desc = true
			} else {
				p.acceptKw("ASC")
			}
			st.OrderBy = append(st.OrderBy, key)
			if p.acceptOp(",") {
				continue
			}
			break
		}
	}
	if p.acceptKw("LIMIT") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Limit = e
	}
	return st, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.acceptOp("*") {
		return SelectItem{Star: true}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if item.Alias, err = p.parseAlias(); err != nil {
		return SelectItem{}, err
	}
	return item, nil
}

// parseAlias accepts an optional `[AS] alias`.
func (p *parser) parseAlias() (string, error) {
	if p.acceptKw("AS") {
		return p.ident()
	}
	if p.peek().kind == tkIdent {
		return p.advance().text, nil
	}
	return "", nil
}

// parseTableExpr parses a FROM clause: a table or view, then any number of
// joins, each with the chain so far as its left side.
func (p *parser) parseTableExpr() (TableExpr, error) {
	left, err := p.parseTableName()
	if err != nil {
		return nil, err
	}
	for {
		join := &JoinExpr{Left: left, Natural: p.acceptKw("NATURAL")}
		if !p.acceptKw("JOIN") {
			if join.Natural {
				return nil, p.errHere("expected JOIN")
			}
			return left, nil
		}
		if join.Right, err = p.parseTableName(); err != nil {
			return nil, err
		}
		if !join.Natural && p.acceptKw("ON") {
			if join.On, err = p.parseExpr(); err != nil {
				return nil, err
			}
		}
		left = join
	}
}

func (p *parser) parseTableName() (TableExpr, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	tn := &TableName{Name: name}
	if tn.Alias, err = p.parseAlias(); err != nil {
		return nil, err
	}
	return tn, nil
}

// Expression parsing: precedence climbing.

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: "OR", L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: "AND", L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if t := p.peek(); t.kind == tkKeyword && t.text == "NOT" &&
		!(p.peek2().kind == tkKeyword && p.peek2().text == "EXISTS") {
		p.advance()
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		switch {
		case t.kind == tkOp && (t.text == "=" || t.text == "!=" || t.text == "<" ||
			t.text == "<=" || t.text == ">" || t.text == ">="):
			p.advance()
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			left = &Binary{Op: t.text, L: left, R: right}

		case t.kind == tkKeyword && t.text == "IS":
			p.advance()
			not := p.acceptKw("NOT")
			if err := p.expectKw("NULL"); err != nil {
				return nil, err
			}
			left = &IsNullExpr{X: left, Not: not}

		case t.kind == tkKeyword && (t.text == "IN" || t.text == "NOT"):
			not := t.text == "NOT"
			if not {
				// NOT is a suffix operator only before IN; otherwise it
				// belongs to an outer NOT.
				if nt := p.peek2(); nt.kind != tkKeyword || nt.text != "IN" {
					return left, nil
				}
				p.advance()
			}
			p.advance() // IN
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			if t := p.peek(); t.kind != tkKeyword || t.text != "SELECT" {
				return nil, p.errHere("IN takes a subquery")
			}
			sel, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			left = &InExpr{X: left, Not: not, Select: sel}

		default:
			return left, nil
		}
	}
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tkOp && (t.text == "+" || t.text == "-") {
			p.advance()
			right, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			left = &Binary{Op: t.text, L: left, R: right}
			continue
		}
		return left, nil
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tkOp && (t.text == "*" || t.text == "/" || t.text == "%") {
			p.advance()
			right, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = &Binary{Op: t.text, L: left, R: right}
			continue
		}
		return left, nil
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.acceptOp("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "-", X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tkNumber:
		// A REAL literal (1.5, 1e3) or an integer past int64 has no value
		// kind to hold it (DESIGN.md §15).
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errHere("%s is outside the supported SQL: a number is an int64 integer", t.text)
		}
		p.advance()
		return &Literal{Val: Int(n)}, nil

	case tkString:
		p.advance()
		return &Literal{Val: Text(t.text)}, nil

	case tkParam:
		p.advance()
		idx := p.params
		p.params++
		return &ParamExpr{Index: idx}, nil

	case tkKeyword:
		switch t.text {
		case "NULL":
			p.advance()
			return &Literal{Val: Null()}, nil
		case "NOT":
			// NOT EXISTS reaches here via parseNot's carve-out.
			p.advance()
			if err := p.expectKw("EXISTS"); err != nil {
				return nil, err
			}
			return p.parseExists(true)
		case "EXISTS":
			p.advance()
			return p.parseExists(false)
		}
		return nil, p.errHere("unexpected keyword %s in expression", t.text)

	case tkIdent:
		if nt := p.peek2(); nt.kind == tkOp && nt.text == "(" {
			return p.parseAggregate()
		}
		p.advance()
		// Qualified column?
		if p.acceptOp(".") {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &ColExpr{Table: t.text, Name: col}, nil
		}
		return &ColExpr{Name: t.text}, nil

	case tkOp:
		if t.text == "(" {
			p.advance()
			if p.peek().kind == tkKeyword && p.peek().text == "SELECT" {
				sel, err := p.parseSelect()
				if err != nil {
					return nil, err
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return &SubqueryExpr{Select: sel}, nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errHere("unexpected token in expression")
}

func (p *parser) parseExists(not bool) (Expr, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &ExistsExpr{Not: not, Select: sel}, nil
}

// parseAggregate parses `name(` ... `)`. The three aggregates are the only
// functions of the grammar.
func (p *parser) parseAggregate() (Expr, error) {
	fc := &FuncCall{Name: strings.ToUpper(p.peek().text)}
	if !isAggregateName(fc.Name) {
		return nil, p.errHere("unsupported function (the grammar has COUNT, MIN and MAX)")
	}
	p.advance()
	p.advance() // (
	if fc.Name == "COUNT" && p.acceptOp("*") {
		fc.Star = true
	} else {
		arg, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		fc.Arg = arg
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return fc, nil
}
