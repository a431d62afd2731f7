package sqldb

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// ColumnDef declares one column of a CREATE TABLE.
type ColumnDef struct {
	Name string
	Type Kind // declared affinity; KindNull means untyped
}

// CreateTableStmt is CREATE TABLE [IF NOT EXISTS] name (cols...).
type CreateTableStmt struct {
	Name        string
	IfNotExists bool
	Cols        []ColumnDef
}

// CreateViewStmt is CREATE VIEW name AS select.
type CreateViewStmt struct {
	Name        string
	IfNotExists bool
	Select      *SelectStmt
}

// DropStmt is DROP TABLE|VIEW [IF EXISTS] name.
type DropStmt struct {
	View     bool
	IfExists bool
	Name     string
}

// InsertStmt is INSERT INTO name [(cols)] VALUES (...),(...) or INSERT INTO
// name [(cols)] select.
type InsertStmt struct {
	Table  string
	Cols   []string
	Rows   [][]Expr
	Select *SelectStmt
}

// Assign is one SET column = expr clause.
type Assign struct {
	Col  string
	Expr Expr
}

// UpdateStmt is UPDATE name SET ... [WHERE ...].
type UpdateStmt struct {
	Table string
	Set   []Assign
	Where Expr
}

// DeleteStmt is DELETE FROM name [WHERE ...].
type DeleteStmt struct {
	Table string
	Where Expr
}

// SelectItem is one projection of a select list.
type SelectItem struct {
	Star      bool   // SELECT * or SELECT t.*
	StarTable string // alias before .*; empty for bare *
	Expr      Expr
	Alias     string
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
	Offset   Expr
	// Union chains compound select parts evaluated left to right.
	Compound []CompoundPart
}

// CompoundOp is a set operation between select cores.
type CompoundOp int

// Compound select operators.
const (
	CompoundUnion CompoundOp = iota
	CompoundUnionAll
	CompoundExcept
	CompoundIntersect
)

// CompoundPart is one `UNION [ALL]|EXCEPT|INTERSECT select` suffix.
type CompoundPart struct {
	Op     CompoundOp
	Select *SelectStmt
}

func (*CreateTableStmt) stmt() {}
func (*CreateViewStmt) stmt()  {}
func (*DropStmt) stmt()        {}
func (*InsertStmt) stmt()      {}
func (*UpdateStmt) stmt()      {}
func (*DeleteStmt) stmt()      {}
func (*SelectStmt) stmt()      {}

// TableExpr is a FROM-clause source.
type TableExpr interface{ tbl() }

// TableName references a table or view, optionally aliased.
type TableName struct {
	Name  string
	Alias string
}

// SubqueryTable is a parenthesised select used as a source.
type SubqueryTable struct {
	Select *SelectStmt
	Alias  string
}

// JoinKind distinguishes join types.
type JoinKind int

// Join types.
const (
	JoinInner JoinKind = iota
	JoinLeft
	JoinCross
)

// JoinExpr combines two sources.
type JoinExpr struct {
	Kind    JoinKind
	Natural bool
	Left    TableExpr
	Right   TableExpr
	On      Expr // nil for natural/cross joins
}

func (*TableName) tbl()     {}
func (*SubqueryTable) tbl() {}
func (*JoinExpr) tbl()      {}

// Expr is any SQL expression.
type Expr interface{ expr() }

// Literal is a constant value.
type Literal struct{ Val Value }

// ParamExpr is a `?` placeholder, bound by position.
type ParamExpr struct{ Index int }

// ColExpr references a column, optionally qualified by table alias.
type ColExpr struct{ Table, Name string }

// Unary is -x, +x or NOT x.
type Unary struct {
	Op string
	X  Expr
}

// Binary is a binary operator application.
type Binary struct {
	Op   string
	L, R Expr
}

// FuncCall is a function invocation; Star marks COUNT(*).
type FuncCall struct {
	Name     string // upper-cased
	Star     bool
	Distinct bool
	Args     []Expr
}

// SubqueryExpr is a scalar subquery.
type SubqueryExpr struct{ Select *SelectStmt }

// InExpr is `x [NOT] IN (list|select)`.
type InExpr struct {
	X      Expr
	Not    bool
	List   []Expr
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

// BetweenExpr is `x [NOT] BETWEEN lo AND hi`.
type BetweenExpr struct {
	X, Lo, Hi Expr
	Not       bool
}

// LikeExpr is `x [NOT] LIKE pattern`.
type LikeExpr struct {
	X, Pattern Expr
	Not        bool
}

// When is one WHEN...THEN arm of a CASE.
type When struct{ Cond, Result Expr }

// CaseExpr is CASE [operand] WHEN..THEN.. [ELSE..] END.
type CaseExpr struct {
	Operand Expr
	Whens   []When
	Else    Expr
}

// CastExpr is CAST(x AS type).
type CastExpr struct {
	X    Expr
	Type Kind
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
func (*BetweenExpr) expr()  {}
func (*LikeExpr) expr()     {}
func (*CaseExpr) expr()     {}
func (*CastExpr) expr()     {}
