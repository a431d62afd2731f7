package sqldb

import (
	"fmt"
	"strings"
)

type tokenKind int

const (
	tkEOF tokenKind = iota
	tkIdent
	tkKeyword
	tkNumber
	tkString
	tkParam // ?
	tkOp    // punctuation and operators
)

type token struct {
	kind tokenKind
	text string // keywords upper-cased, identifiers as written
	pos  int
}

// keywords of the grammar (DESIGN.md §15). Identifiers matching these (case
// insensitively) lex as tkKeyword.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "LIMIT": true, "ASC": true, "DESC": true,
	"DISTINCT": true, "AS": true, "JOIN": true, "NATURAL": true, "ON": true,
	"AND": true, "OR": true, "NOT": true, "IN": true, "IS": true, "NULL": true,
	"EXISTS": true, "CREATE": true, "TABLE": true, "VIEW": true,
	"INSERT": true, "INTO": true, "VALUES": true, "DELETE": true,
	"INTEGER": true, "INT": true, "TEXT": true,
}

// unsupported are SQL keywords the grammar leaves out. They stay reserved so
// that a statement using one is refused by name; lexed as identifiers they
// would be taken for aliases, and `t LEFT JOIN u` would run as an inner join
// of t, aliased "LEFT", with u. A quoted identifier may still spell one.
var unsupported = map[string]bool{
	"UPDATE": true, "SET": true, "DROP": true, "IF": true, "CASE": true,
	"WHEN": true, "THEN": true, "ELSE": true, "END": true, "CAST": true,
	"LIKE": true, "BETWEEN": true, "UNION": true, "EXCEPT": true,
	"INTERSECT": true, "ALL": true, "OFFSET": true, "INNER": true,
	"LEFT": true, "OUTER": true, "CROSS": true, "PRIMARY": true, "KEY": true,
	"UNIQUE": true, "DEFAULT": true, "BEGIN": true, "COMMIT": true,
	"ROLLBACK": true, "REAL": true, "BLOB": true,
}

type lexer struct {
	src string
	pos int
}

func (l *lexer) errf(pos int, format string, args ...any) error {
	return fmt.Errorf("sqldb: parse error at offset %d: %s", pos, fmt.Sprintf(format, args...))
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				return token{}, l.errf(l.pos, "unterminated comment")
			}
			l.pos += 2 + end + 2
		default:
			goto scan
		}
	}
	return token{kind: tkEOF, pos: l.pos}, nil

scan:
	start := l.pos
	c := l.src[l.pos]
	switch {
	case isIdentStart(c):
		l.pos++
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		word := l.src[start:l.pos]
		up := strings.ToUpper(word)
		if keywords[up] {
			return token{kind: tkKeyword, text: up, pos: start}, nil
		}
		if unsupported[up] {
			return token{}, l.errf(start, "%s is outside the supported SQL", up)
		}
		return token{kind: tkIdent, text: word, pos: start}, nil

	case c == '"' || c == '`': // quoted identifier
		quote := c
		l.pos++
		var sb strings.Builder
		for {
			if l.pos >= len(l.src) {
				return token{}, l.errf(start, "unterminated quoted identifier")
			}
			ch := l.src[l.pos]
			if ch == quote {
				if l.pos+1 < len(l.src) && l.src[l.pos+1] == quote {
					sb.WriteByte(quote)
					l.pos += 2
					continue
				}
				l.pos++
				break
			}
			sb.WriteByte(ch)
			l.pos++
		}
		return token{kind: tkIdent, text: sb.String(), pos: start}, nil

	case c >= '0' && c <= '9' || (c == '.' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9'):
		l.pos++
		for l.pos < len(l.src) && (isDigit(l.src[l.pos]) || l.src[l.pos] == '.' ||
			l.src[l.pos] == 'e' || l.src[l.pos] == 'E' ||
			((l.src[l.pos] == '+' || l.src[l.pos] == '-') && (l.src[l.pos-1] == 'e' || l.src[l.pos-1] == 'E'))) {
			l.pos++
		}
		return token{kind: tkNumber, text: l.src[start:l.pos], pos: start}, nil

	case c == '\'': // string literal; '' escapes a quote
		l.pos++
		var sb strings.Builder
		for {
			if l.pos >= len(l.src) {
				return token{}, l.errf(start, "unterminated string literal")
			}
			ch := l.src[l.pos]
			if ch == '\'' {
				if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
					sb.WriteByte('\'')
					l.pos += 2
					continue
				}
				l.pos++
				break
			}
			sb.WriteByte(ch)
			l.pos++
		}
		return token{kind: tkString, text: sb.String(), pos: start}, nil

	case c == '?':
		l.pos++
		return token{kind: tkParam, text: "?", pos: start}, nil

	default:
		// Multi-char operators first.
		two := ""
		if l.pos+1 < len(l.src) {
			two = l.src[l.pos : l.pos+2]
		}
		switch two {
		case "!=", "<>", "<=", ">=", "==":
			l.pos += 2
			if two == "<>" {
				two = "!="
			}
			if two == "==" {
				two = "="
			}
			return token{kind: tkOp, text: two, pos: start}, nil
		}
		switch c {
		case '(', ')', ',', ';', '*', '+', '-', '/', '%', '=', '<', '>', '.':
			l.pos++
			return token{kind: tkOp, text: string(c), pos: start}, nil
		}
		return token{}, l.errf(start, "unexpected character %q", c)
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// lexAll tokenises an entire statement.
func lexAll(src string) ([]token, error) {
	l := &lexer{src: src}
	var toks []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tkEOF {
			return toks, nil
		}
	}
}
