package sqldb

// The statement and expression forms here are the whole supported surface;
// the grammar they implement is written down in DESIGN.md §15 ("Supported
// SQL"). Anything else is a parse error.

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// ColumnDef declares one column of a CREATE TABLE.
type ColumnDef struct {
	Name string
	Type Kind // declared affinity; KindNull means untyped
}

// CreateTableStmt is CREATE TABLE name (cols...).
type CreateTableStmt struct {
	Name string
	Cols []ColumnDef
}

// CreateViewStmt is CREATE VIEW name AS select.
type CreateViewStmt struct {
	Name   string
	Select *SelectStmt
}

// InsertStmt is INSERT INTO name VALUES (...),(...): every row gives a value
// for every column, in declaration order.
type InsertStmt struct {
	Table string
	Rows  [][]Expr
}

// DeleteStmt is DELETE FROM name [WHERE ...].
type DeleteStmt struct {
	Table string
	Where Expr
}

// SelectItem is one projection of a select list.
type SelectItem struct {
	Star  bool // SELECT *
	Expr  Expr
	Alias string
}

// OrderKey is one ORDER BY term.
type OrderKey struct {
	Expr Expr
	Desc bool
}

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     TableExpr // nil for FROM-less selects
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderKey
	Limit    Expr
}

func (*CreateTableStmt) stmt() {}
func (*CreateViewStmt) stmt()  {}
func (*InsertStmt) stmt()      {}
func (*DeleteStmt) stmt()      {}
func (*SelectStmt) stmt()      {}

// TableExpr is a FROM-clause source.
type TableExpr interface{ tbl() }

// TableName references a table or view, optionally aliased.
type TableName struct {
	Name  string
	Alias string
}

// JoinExpr is an inner join of two sources. Without ON (and not NATURAL) it
// is their cross product.
type JoinExpr struct {
	Natural bool
	Left    TableExpr
	Right   TableExpr
	On      Expr // nil for natural joins and cross products
}

func (*TableName) tbl() {}
func (*JoinExpr) tbl()  {}

// Expr is any SQL expression.
type Expr interface{ expr() }

// Literal is a constant value.
type Literal struct{ Val Value }

// ParamExpr is a `?` placeholder, bound by position.
type ParamExpr struct{ Index int }

// ColExpr references a column, optionally qualified by table alias.
type ColExpr struct{ Table, Name string }

// Unary is -x or NOT x.
type Unary struct {
	Op string
	X  Expr
}

// Binary is a binary operator application.
type Binary struct {
	Op   string
	L, R Expr
}

// FuncCall is an aggregate call: COUNT, MIN or MAX of one expression, or
// COUNT(*) (Star).
type FuncCall struct {
	Name string // upper-cased
	Star bool
	Arg  Expr // nil for COUNT(*)
}

// SubqueryExpr is a scalar subquery.
type SubqueryExpr struct{ Select *SelectStmt }

// InExpr is `x [NOT] IN (select)`.
type InExpr struct {
	X      Expr
	Not    bool
	Select *SelectStmt
}

// ExistsExpr is `[NOT] EXISTS (select)`.
type ExistsExpr struct {
	Not    bool
	Select *SelectStmt
}

// IsNullExpr is `x IS [NOT] NULL`.
type IsNullExpr struct {
	X   Expr
	Not bool
}

func (*Literal) expr()      {}
func (*ParamExpr) expr()    {}
func (*ColExpr) expr()      {}
func (*Unary) expr()        {}
func (*Binary) expr()       {}
func (*FuncCall) expr()     {}
func (*SubqueryExpr) expr() {}
func (*InExpr) expr()       {}
func (*ExistsExpr) expr()   {}
func (*IsNullExpr) expr()   {}
