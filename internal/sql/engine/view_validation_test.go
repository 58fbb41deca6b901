package engine

import (
	"errors"
	"fmt"
	"testing"

	"minerule/internal/sql/semck"
)

// invalidViews are view bodies the semantic checker must reject. CREATE
// VIEW never executes its body, so semck is the only thing standing
// between these and the catalog. A bare non-grouped column under GROUP
// BY is not among them: the engine evaluates it on one row of the group.
var invalidViews = []struct{ name, body string }{
	{"unknown table", "SELECT a FROM missing"},
	{"unknown column", "SELECT zz FROM t"},
	{"ambiguous column", "SELECT a FROM t, u"},
	{"aggregate outside grouping", "SELECT a FROM t WHERE COUNT(*) > 1 GROUP BY a"},
	{"set-op arity", "SELECT a FROM t UNION SELECT a, b FROM u"},
}

func viewDB(t *testing.T) *Database {
	t.Helper()
	db := New()
	if err := db.ExecScript(`
		CREATE TABLE t (a INTEGER, b VARCHAR);
		CREATE TABLE u (a INTEGER, b VARCHAR);
		INSERT INTO t VALUES (1, 'x'), (2, 'y');
		INSERT INTO u VALUES (1, 'z');
	`); err != nil {
		t.Fatal(err)
	}
	return db
}

func wantSemckError(t *testing.T, err error) {
	t.Helper()
	var se *semck.Error
	if !errors.As(err, &se) {
		t.Fatalf("err = %v (%T), want a *semck.Error", err, err)
	}
}

// TestInvalidViewRejected proves every path that can create a view
// rejects an invalid body with a semck diagnostic and leaves no view
// behind.
func TestInvalidViewRejected(t *testing.T) {
	paths := []struct {
		name string
		run  func(db *Database, stmt string) error
	}{
		{"Exec", func(db *Database, stmt string) error {
			_, err := db.Exec(stmt)
			return err
		}},
		{"ExecScript", func(db *Database, stmt string) error {
			return db.ExecScript(stmt + ";")
		}},
		{"transaction", func(db *Database, stmt string) error {
			c := db.Conn()
			defer c.Close()
			if _, err := c.Exec("BEGIN"); err != nil {
				return fmt.Errorf("BEGIN: %v", err)
			}
			_, err := c.Exec(stmt)
			if _, cerr := c.Exec("COMMIT"); cerr != nil {
				return fmt.Errorf("COMMIT: %v", cerr)
			}
			return err
		}},
		{"Prepare", func(db *Database, stmt string) error {
			_, err := db.Prepare(stmt)
			return err
		}},
	}
	for _, p := range paths {
		for _, v := range invalidViews {
			t.Run(p.name+"/"+v.name, func(t *testing.T) {
				db := viewDB(t)
				wantSemckError(t, p.run(db, "CREATE VIEW v AS "+v.body))
				if _, ok := db.Catalog().View("v"); ok {
					t.Fatal("rejected view v exists")
				}
			})
		}
	}
}

// TestCreateViewScansNothing proves view creation is independent of the
// data: it registers the text and reads no base-table row.
func TestCreateViewScansNothing(t *testing.T) {
	db := obsDB(t)
	m := db.Metrics()
	before := m.RowsScanned.Load()
	if _, err := db.Exec("CREATE VIEW byitem AS SELECT item, COUNT(*) FROM s GROUP BY item"); err != nil {
		t.Fatal(err)
	}
	if got := m.RowsScanned.Load() - before; got != 0 {
		t.Errorf("CREATE VIEW scanned %d rows, want 0", got)
	}
	if _, err := db.Query("SELECT * FROM byitem"); err != nil {
		t.Fatal(err)
	}
	if got := m.RowsScanned.Load() - before; got != 6 {
		t.Errorf("query over the view scanned %d rows, want 6", got)
	}
}
