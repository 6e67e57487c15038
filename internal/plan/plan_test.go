package plan

import (
	"fmt"
	"strings"
	"testing"

	"vectorwise/internal/sql"
	"vectorwise/internal/types"
)

type fakeCatalog map[string]*TableMeta

func (c fakeCatalog) ResolveTable(name string) (*TableMeta, error) {
	if m, ok := c[name]; ok {
		return m, nil
	}
	return nil, fmt.Errorf("no table %q", name)
}

func testCatalog() fakeCatalog {
	return fakeCatalog{
		"items": {
			Name:      "items",
			Structure: "vectorwise",
			Key:       0,
			Schema: types.NewSchema(
				types.Col("id", types.Int64),
				types.Col("grp", types.Int64),
				types.Col("price", types.Float64.Null()),
				types.Col("name", types.String),
				types.Col("d", types.Date),
			),
		},
		"groups": {
			Name:      "groups",
			Structure: "vectorwise",
			Key:       0,
			Schema: types.NewSchema(
				types.Col("gid", types.Int64),
				types.Col("label", types.String),
			),
		},
	}
}

func bind(t *testing.T, src string) Node {
	t.Helper()
	stmt, err := sql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	b := &Binder{Cat: testCatalog()}
	n, err := b.BindSelect(stmt.(*sql.SelectStmt))
	if err != nil {
		t.Fatalf("bind %q: %v", src, err)
	}
	return n
}

func bindErr(t *testing.T, src string) error {
	t.Helper()
	stmt, err := sql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	b := &Binder{Cat: testCatalog()}
	_, err = b.BindSelect(stmt.(*sql.SelectStmt))
	if err == nil {
		t.Fatalf("bind %q: expected error", src)
	}
	return err
}

func TestBindSimple(t *testing.T) {
	n := bind(t, "SELECT id, price FROM items WHERE grp = 3")
	s := n.Schema()
	if s.Len() != 2 || s.Cols[0].Name != "id" || s.Cols[1].Type.Kind != types.KindFloat64 {
		t.Fatalf("schema: %s", s)
	}
	if !s.Cols[1].Type.Nullable || s.Cols[0].Type.Nullable {
		t.Fatal("nullability lost")
	}
	// Shape: Project(Select(Scan)).
	p, ok := n.(*Project)
	if !ok {
		t.Fatalf("top: %T", n)
	}
	if _, ok := p.Child.(*Select); !ok {
		t.Fatalf("mid: %T", p.Child)
	}
}

func TestBindStar(t *testing.T) {
	n := bind(t, "SELECT * FROM items")
	if n.Schema().Len() != 5 {
		t.Fatalf("star: %s", n.Schema())
	}
}

func TestBindArithmeticPromotion(t *testing.T) {
	n := bind(t, "SELECT id + price FROM items")
	if n.Schema().Cols[0].Type.Kind != types.KindFloat64 {
		t.Fatalf("promotion: %s", n.Schema())
	}
	if !n.Schema().Cols[0].Type.Nullable {
		t.Fatal("nullable arith must stay nullable")
	}
}

func TestBindJoin(t *testing.T) {
	n := bind(t, "SELECT i.id, g.label FROM items i JOIN groups g ON i.grp = g.gid")
	if n.Schema().Len() != 2 || n.Schema().Cols[1].Name != "label" {
		t.Fatalf("join schema: %s", n.Schema())
	}
	// Left outer makes right side nullable.
	n2 := bind(t, "SELECT g.label FROM items i LEFT JOIN groups g ON i.grp = g.gid")
	if !n2.Schema().Cols[0].Type.Nullable {
		t.Fatal("left join right side must become nullable")
	}
}

func TestBindAmbiguousAndMissing(t *testing.T) {
	bindErr(t, "SELECT id FROM items i JOIN items j ON i.id = j.id")
	bindErr(t, "SELECT nosuch FROM items")
	bindErr(t, "SELECT * FROM nosuchtable")
}

func TestBindAggregate(t *testing.T) {
	n := bind(t, "SELECT grp, COUNT(*), SUM(price), AVG(price) FROM items GROUP BY grp HAVING COUNT(*) > 1")
	s := n.Schema()
	if s.Len() != 4 {
		t.Fatalf("agg schema: %s", s)
	}
	if s.Cols[1].Type.Kind != types.KindInt64 || s.Cols[3].Type.Kind != types.KindFloat64 {
		t.Fatalf("agg types: %s", s)
	}
	// Column not in GROUP BY is rejected.
	bindErr(t, "SELECT id FROM items GROUP BY grp")
	// Aggregates of aggregates rejected via function resolution.
	bindErr(t, "SELECT SUM(price) FROM items WHERE SUM(price) > 1")
}

func TestBindGroupByExpression(t *testing.T) {
	n := bind(t, "SELECT grp % 2, COUNT(*) FROM items GROUP BY grp % 2")
	if n.Schema().Len() != 2 {
		t.Fatalf("schema: %s", n.Schema())
	}
}

func TestBindOrderLimitDistinct(t *testing.T) {
	n := bind(t, "SELECT grp FROM items ORDER BY grp DESC LIMIT 5 OFFSET 2")
	lim, ok := n.(*Limit)
	if !ok || lim.N != 5 || lim.Offset != 2 {
		t.Fatalf("limit: %T", n)
	}
	if _, ok := lim.Child.(*Sort); !ok {
		t.Fatalf("sort: %T", lim.Child)
	}
	// ORDER BY an expression not in the select list: hidden column dropped.
	n2 := bind(t, "SELECT id FROM items ORDER BY price")
	if n2.Schema().Len() != 1 {
		t.Fatalf("hidden sort col leaked: %s", n2.Schema())
	}
	n3 := bind(t, "SELECT DISTINCT grp FROM items")
	if _, ok := n3.(*Aggregate); !ok {
		t.Fatalf("distinct: %T", n3)
	}
}

func TestBindSubqueryPredicates(t *testing.T) {
	n := bind(t, "SELECT id FROM items WHERE grp IN (SELECT gid FROM groups)")
	found := false
	var walk func(Node)
	walk = func(nd Node) {
		if j, ok := nd.(*Join); ok && j.Kind == JoinSemi {
			found = true
		}
		for _, c := range nd.Children() {
			walk(c)
		}
	}
	walk(n)
	if !found {
		t.Fatalf("IN subquery did not become semi join:\n%s", Format(n))
	}
	// NOT IN over nullable → null-aware anti join.
	n2 := bind(t, "SELECT id FROM items WHERE price NOT IN (SELECT price FROM items)")
	foundAnti := false
	walk2 := func(nd Node) {}
	var rec func(Node)
	rec = func(nd Node) {
		if j, ok := nd.(*Join); ok && j.Kind == JoinAntiNull {
			foundAnti = true
		}
		for _, c := range nd.Children() {
			rec(c)
		}
	}
	rec(n2)
	_ = walk2
	if !foundAnti {
		t.Fatalf("NOT IN nullable did not become anti-null join:\n%s", Format(n2))
	}
	// EXISTS.
	n3 := bind(t, "SELECT id FROM items WHERE EXISTS (SELECT 1 FROM groups)")
	foundSemi := false
	var rec3 func(Node)
	rec3 = func(nd Node) {
		if j, ok := nd.(*Join); ok && j.Kind == JoinSemi {
			foundSemi = true
		}
		for _, c := range nd.Children() {
			rec3(c)
		}
	}
	rec3(n3)
	if !foundSemi {
		t.Fatal("EXISTS did not become semi join")
	}
}

func TestBindScalarSubquery(t *testing.T) {
	stmt, _ := sql.Parse("SELECT id FROM items WHERE price > (SELECT AVG(price) FROM items)")
	b := &Binder{Cat: testCatalog(), EvalScalarSub: func(*sql.SelectStmt) (types.Value, error) {
		return types.NewFloat64(42.5), nil
	}}
	n, err := b.BindSelect(stmt.(*sql.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(Format(n), "42.5") {
		t.Fatalf("subquery constant missing:\n%s", Format(n))
	}
}

func TestBindCaseInListFunctions(t *testing.T) {
	n := bind(t, `SELECT CASE WHEN grp > 2 THEN 'hi' ELSE 'lo' END,
		grp IN (1, 2, 3),
		UPPER(name), SUBSTRING(name, 1, 2), ROUND(price), YEAR(d)
		FROM items`)
	s := n.Schema()
	if s.Cols[0].Type.Kind != types.KindString || s.Cols[1].Type.Kind != types.KindBool {
		t.Fatalf("case/in types: %s", s)
	}
	if s.Cols[5].Type.Kind != types.KindInt32 {
		t.Fatalf("year type: %s", s)
	}
}

func TestBindIsNull(t *testing.T) {
	n := bind(t, "SELECT price IS NULL, id IS NULL FROM items")
	// id is NOT NULL → folds to constant false.
	p := n.(*Project)
	if p.Exprs[1].String() != "false" {
		t.Fatalf("non-nullable IS NULL should fold: %s", p.Exprs[1])
	}
	if p.Exprs[0].String() != "isnull(price)" {
		t.Fatalf("nullable IS NULL: %s", p.Exprs[0])
	}
}

func TestBindNullLiteralTyping(t *testing.T) {
	n := bind(t, "SELECT price = NULL FROM items")
	if n.Schema().Cols[0].Type.Kind != types.KindBool {
		t.Fatal("null compare typing")
	}
	bindErr(t, "SELECT NULL = NULL FROM items")
}

func TestBindDerivedTable(t *testing.T) {
	n := bind(t, "SELECT s.total FROM (SELECT grp, SUM(price) AS total FROM items GROUP BY grp) s WHERE s.total > 10")
	if n.Schema().Len() != 1 || n.Schema().Cols[0].Name != "total" {
		t.Fatalf("derived: %s", n.Schema())
	}
}

func TestFormatPlan(t *testing.T) {
	n := bind(t, "SELECT id FROM items WHERE grp = 1")
	f := Format(n)
	if !strings.Contains(f, "Scan(items:vectorwise, [id, grp, price, name, d])") || !strings.Contains(f, "Select(") {
		t.Fatalf("format:\n%s", f)
	}
}

// The row search of UPDATE/DELETE: a RID-projecting scan, the WHERE and SET
// over the table's columns only, and a projection of the row id, the kept old
// values and the new ones.
func TestBindMatch(t *testing.T) {
	parse := func(src string) *sql.UpdateStmt {
		stmt, err := sql.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return stmt.(*sql.UpdateStmt)
	}
	b := &Binder{Cat: testCatalog()}
	meta := testCatalog()["items"]
	upd := parse(`UPDATE items SET price = price + grp, name = NULL WHERE grp = 3 AND price IS NULL`)
	n, targets, err := b.BindMatch(meta, upd.Where, upd.Set, false)
	if err != nil {
		t.Fatal(err)
	}
	want := "Project($rid, price, name, (price + cast_float64(grp)), NULL)\n" +
		"  Select(((grp = cast_int64(3)) and isnull(price)))\n" +
		"    Scan(items:vectorwise, [id, grp, price, name, d, $rid])\n"
	if got := Format(n); got != want || fmt.Sprint(targets) != "[2 3]" {
		t.Fatalf("bound search, targets %v:\n%swant:\n%s", targets, Format(n), want)
	}
	s := n.Schema()
	if s.Cols[0].Type != types.Int64 || s.Cols[1].Type != types.Float64.Null() ||
		s.Cols[3].Name != "$set_price" || s.Cols[3].Type.Kind != types.KindFloat64 ||
		s.Cols[4].Name != "$set_name" || s.Cols[4].Type.Kind != types.KindString {
		t.Fatalf("output schema %s", s)
	}
	// Keeping every column: the old row whole, then the new values.
	n, _, err = b.BindMatch(meta, nil, upd.Set, true)
	if err != nil || Format(n) != "Project($rid, id, grp, price, name, d, (price + cast_float64(grp)), NULL)\n  Scan(items:vectorwise, [id, grp, price, name, d, $rid])\n" {
		t.Fatalf("search keeping every column: %v\n%s", err, Format(n))
	}
	// No WHERE and no SET (a DELETE): every row; nothing emitted but the id.
	n, targets, err = b.BindMatch(meta, nil, nil, false)
	if err != nil || len(targets) != 0 || Format(n) != "Project($rid)\n  Scan(items:vectorwise, [id, grp, price, name, d, $rid])\n" {
		t.Fatalf("unfiltered search: %v\n%s", err, Format(n))
	}
	for src, want := range map[string]string{
		`UPDATE items SET price = 1 WHERE grp + 1`: "boolean",
		`UPDATE items SET nope = 1`:                `no column "nope"`,
		`UPDATE items SET price = 1, price = 2`:    "set twice",
	} {
		upd := parse(src)
		if _, _, err := b.BindMatch(meta, upd.Where, upd.Set, false); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: %v, want an error naming %q", src, err, want)
		}
	}
}
