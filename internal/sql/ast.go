package sql

import "vectorwise/internal/types"

// The SQL AST. Nodes carry no type information — typing is the binder's
// job (internal/plan).

// Stmt is any statement.
type Stmt interface{ stmt() }

// SelectStmt is a query.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef // cross-join list; JOIN clauses nest inside
	Where    ExprNode
	GroupBy  []ExprNode
	Having   ExprNode
	OrderBy  []OrderItem
	Limit    int64 // -1 = none
	Offset   int64
	// Options set via WITH (...) suffix: parallelism degree, vector size.
	Parallel   int
	VectorSize int
}

func (*SelectStmt) stmt() {}

// SelectItem is one output column (Star means "*").
type SelectItem struct {
	Expr  ExprNode
	Alias string
	Star  bool
}

// TableRef is a table or join in FROM.
type TableRef interface{ tableRef() }

// BaseTable names a catalog table.
type BaseTable struct {
	Name  string
	Alias string
}

func (*BaseTable) tableRef() {}

// JoinRef is an explicit JOIN.
type JoinRef struct {
	Kind  string // "inner", "left", "cross", "semi", "anti"
	Left  TableRef
	Right TableRef
	On    ExprNode
}

func (*JoinRef) tableRef() {}

// SubqueryTable is a derived table in FROM.
type SubqueryTable struct {
	Query *SelectStmt
	Alias string
}

func (*SubqueryTable) tableRef() {}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr ExprNode
	Desc bool
}

// CreateTableStmt is DDL.
type CreateTableStmt struct {
	Name      string
	Cols      []ColDef
	Structure string // "vectorwise" (default) or "heap"
}

func (*CreateTableStmt) stmt() {}

// ColDef is one column definition.
type ColDef struct {
	Name       string
	Type       types.T
	PrimaryKey bool
}

// DropTableStmt drops a table.
type DropTableStmt struct{ Name string }

func (*DropTableStmt) stmt() {}

// InsertStmt inserts literal rows or a query result.
type InsertStmt struct {
	Table string
	Rows  [][]ExprNode // VALUES lists
	Query *SelectStmt  // INSERT ... SELECT
}

func (*InsertStmt) stmt() {}

// UpdateStmt updates rows.
type UpdateStmt struct {
	Table string
	Set   []SetClause
	Where ExprNode
}

func (*UpdateStmt) stmt() {}

// SetClause is one SET col = expr.
type SetClause struct {
	Col  string
	Expr ExprNode
}

// DeleteStmt deletes rows.
type DeleteStmt struct {
	Table string
	Where ExprNode
}

func (*DeleteStmt) stmt() {}

// CopyStmt bulk-loads a CSV file. A non-empty OrderBy requests a clustered
// load: rows are sorted by the named columns on the way into storage.
type CopyStmt struct {
	Table   string
	Path    string
	OrderBy []CopyOrder
}

// CopyOrder is one sort key of a clustered COPY.
type CopyOrder struct {
	Col  string
	Desc bool
}

func (*CopyStmt) stmt() {}

// AnalyzeStmt builds optimizer statistics.
type AnalyzeStmt struct{ Table string }

func (*AnalyzeStmt) stmt() {}

// CheckpointStmt propagates PDT deltas into stable storage.
type CheckpointStmt struct{ Table string }

func (*CheckpointStmt) stmt() {}

// ExplainStmt shows the plan stages of a query: logical, optimized and
// physical. Physical restricts the output to the physical plan.
type ExplainStmt struct {
	Query    Stmt
	Profile  bool
	Physical bool
}

func (*ExplainStmt) stmt() {}

// ShowStmt is SHOW TABLES / SHOW QUERIES.
type ShowStmt struct{ What string }

func (*ShowStmt) stmt() {}

// ExprNode is any scalar expression in the AST.
type ExprNode interface{ exprNode() }

// Lit is a literal (types.Value, Null for NULL).
type Lit struct{ Val types.Value }

func (*Lit) exprNode() {}

// ColName references a (possibly qualified) column.
type ColName struct {
	Table string // empty = unqualified
	Name  string
}

func (*ColName) exprNode() {}

// BinOp is a binary operation ("+", "=", "and", "like", …).
type BinOp struct {
	Op   string
	L, R ExprNode
}

func (*BinOp) exprNode() {}

// UnOp is unary ("-", "not").
type UnOp struct {
	Op string
	E  ExprNode
}

func (*UnOp) exprNode() {}

// FuncCall is a named function application; Star marks COUNT(*).
type FuncCall struct {
	Name string
	Args []ExprNode
	Star bool
}

func (*FuncCall) exprNode() {}

// CaseExpr is CASE WHEN … THEN … [ELSE …] END.
type CaseExpr struct {
	Whens []WhenClause
	Else  ExprNode
}

func (*CaseExpr) exprNode() {}

// WhenClause is one WHEN/THEN pair.
type WhenClause struct {
	Cond ExprNode
	Then ExprNode
}

// CastExpr is CAST(e AS T).
type CastExpr struct {
	E  ExprNode
	To types.T
}

func (*CastExpr) exprNode() {}

// IsNullExpr is e IS [NOT] NULL.
type IsNullExpr struct {
	E   ExprNode
	Not bool
}

func (*IsNullExpr) exprNode() {}

// BetweenExpr is e [NOT] BETWEEN lo AND hi.
type BetweenExpr struct {
	E, Lo, Hi ExprNode
	Not       bool
}

func (*BetweenExpr) exprNode() {}

// InExpr is e [NOT] IN (list) or e [NOT] IN (subquery).
type InExpr struct {
	E    ExprNode
	List []ExprNode
	Sub  *SelectStmt
	Not  bool
}

func (*InExpr) exprNode() {}

// ExistsExpr is [NOT] EXISTS (subquery).
type ExistsExpr struct {
	Sub *SelectStmt
	Not bool
}

func (*ExistsExpr) exprNode() {}

// SubqueryExpr is a scalar subquery.
type SubqueryExpr struct{ Sub *SelectStmt }

func (*SubqueryExpr) exprNode() {}
