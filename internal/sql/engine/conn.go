package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"minerule/internal/sql/exec"
	"minerule/internal/sql/parse"
	"minerule/internal/sql/schema"
	"minerule/internal/sql/semck"
	"minerule/internal/sql/txn"
	"minerule/internal/sql/value"
)

// Conn is one session's connection to the database: the unit of
// transaction scope. A connection outside an explicit transaction runs
// every statement in autocommit — an ephemeral transaction per
// statement, fully concurrent with other connections. BEGIN opens an
// explicit transaction on the connection; until COMMIT/ROLLBACK, the
// connection's statements execute inside it (serialized per connection
// — a transaction belongs to one session, as everywhere in SQL).
//
// A Conn is safe for concurrent use, but interleaving statements from
// several goroutines inside one explicit transaction gives the usual
// undefined statement order.
type Conn struct {
	db *Database
	mu sync.Mutex
	tx *txn.Txn // guarded by mu; non-nil inside an explicit transaction
}

// Conn returns a new connection. Connections are cheap; the network
// session layer creates one per remote session.
func (db *Database) Conn() *Conn { return &Conn{db: db} }

// InTxn reports whether the connection has an explicit transaction
// open.
func (c *Conn) InTxn() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tx != nil
}

// Close rolls back any open explicit transaction and releases the
// connection. The database itself stays open.
func (c *Conn) Close() error {
	c.mu.Lock()
	tx := c.tx
	c.tx = nil
	c.mu.Unlock()
	if tx != nil {
		tx.Rollback()
		c.db.mgr.Release(tx)
	}
	return nil
}

// Exec parses and executes one SQL statement on this connection.
func (c *Conn) Exec(sql string) (*exec.Result, error) {
	return c.ExecContext(context.Background(), sql)
}

// ExecContext parses and executes one SQL statement under a
// cancellation context, binding args to its ? parameters in order.
// Execution is bounded by the database Limits and guarded by the
// executor's panic-containment boundary.
func (c *Conn) ExecContext(ctx context.Context, sql string, args ...value.Value) (*exec.Result, error) {
	db := c.db
	t0 := time.Now()
	p, err := db.parseStmt(sql)
	db.met.ParseNanos.Add(int64(time.Since(t0)))
	if err == nil {
		err = checkArity(p.params, args)
	}
	if err != nil {
		db.met.StmtErrors.Inc()
		return nil, fmt.Errorf("engine: %w\n  in: %s", err, compact(sql))
	}
	return c.execParsed(ctx, p.st, p, sql, sql, nil, args)
}

// ExecScript executes a semicolon-separated sequence of statements on
// this connection, stopping at the first error.
func (c *Conn) ExecScript(sql string) error {
	return c.ExecScriptContext(context.Background(), sql)
}

// ExecScriptContext is ExecScript under a cancellation context. The
// script is semantically checked as a unit (DDL effects threaded
// through an overlay), so the per-statement verdict cache is bypassed;
// transaction-control statements inside the script act on this
// connection, so a script may open, populate, and commit a transaction.
// args bind the script's ? parameters, numbered across its statements.
func (c *Conn) ExecScriptContext(ctx context.Context, sql string, args ...value.Value) error {
	sts, params, err := c.db.prepareScript(sql)
	if err == nil {
		err = checkArity(params, args)
	}
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	for _, st := range sts {
		if _, err := c.execParsed(ctx, st, nil, sql, st.SQL(), nil, args); err != nil {
			return err
		}
	}
	return nil
}

// checkArity fails an execution whose argument count differs from the
// text's ? parameter count.
func checkArity(params int, args []value.Value) error {
	if len(args) != params {
		return fmt.Errorf("statement has %d parameter(s), got %d argument(s)", params, len(args))
	}
	return nil
}

// execParsed dispatches one parsed statement: transaction control acts
// on the connection itself; everything else runs inside a transaction —
// the connection's explicit one when open, an ephemeral autocommit
// transaction otherwise.
func (c *Conn) execParsed(ctx context.Context, st parse.Statement, p *prepared, src, stmtSQL string, trace func(string), args []value.Value) (*exec.Result, error) {
	switch st.(type) {
	case *parse.Begin:
		return c.beginTxn()
	case *parse.Commit:
		return c.commitTxn(ctx)
	case *parse.Rollback:
		return c.rollbackTxn()
	}
	db := c.db
	c.mu.Lock()
	if c.tx != nil {
		// Explicit transaction: the statement joins it; the connection
		// lock serializes the session's own statements against its
		// COMMIT/ROLLBACK.
		defer c.mu.Unlock()
		return db.execStatement(ctx, c.tx, false, st, p, src, stmtSQL, trace, args)
	}
	c.mu.Unlock()
	tx := db.mgr.Begin()
	res, err := db.execStatement(ctx, tx, true, st, p, src, stmtSQL, trace, args)
	db.mgr.Release(tx)
	return res, err
}

// AppendRows appends rows to the named table on this connection: inside
// its explicit transaction when one is open, otherwise as one
// autocommit transaction. It is the row write path for callers that
// hold rows rather than SQL text — CSV import and the kernel's
// postprocessor. The rows must match the table's schema positionally;
// the table owns them afterwards. A failure buffers nothing.
func (c *Conn) AppendRows(ctx context.Context, table string, rows []schema.Row) error {
	db := c.db
	c.mu.Lock()
	if tx := c.tx; tx != nil {
		defer c.mu.Unlock()
		return appendRows(ctx, db, tx, table, rows)
	}
	c.mu.Unlock()
	tx := db.mgr.Begin()
	defer db.mgr.Release(tx)
	if err := appendRows(ctx, db, tx, table, rows); err != nil {
		tx.Rollback()
		return err
	}
	if err := tx.Commit(ctx); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	return nil
}

// appendRows buffers rows into table's overlay in tx under the
// context's effective limits, which the commit's page-I/O charge uses.
func appendRows(ctx context.Context, db *Database, tx *txn.Txn, table string, rows []schema.Row) error {
	tx.SetLimits(db.effLimits(ctx))
	t, ok, err := tx.ForWrite(ctx, table)
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	if !ok {
		return fmt.Errorf("engine: unknown table %q", table)
	}
	return tx.InsertRows(t, rows)
}

// beginTxn implements BEGIN: it opens an explicit transaction on the
// connection.
func (c *Conn) beginTxn() (*exec.Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.tx != nil {
		c.db.met.StmtErrors.Inc()
		return nil, errors.New("engine: transaction already in progress")
	}
	c.tx = c.db.mgr.Begin()
	c.db.met.StmtExecuted.Inc()
	return &exec.Result{}, nil
}

// commitTxn implements COMMIT: the explicit transaction's write set
// becomes visible atomically and the call returns once it is durable
// (sharing a group fsync with concurrent committers).
func (c *Conn) commitTxn(ctx context.Context) (*exec.Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.tx == nil {
		c.db.met.StmtErrors.Inc()
		return nil, errors.New("engine: no transaction in progress")
	}
	tx := c.tx
	c.tx = nil
	err := tx.Commit(ctx)
	c.db.mgr.Release(tx)
	if err != nil {
		c.db.met.StmtErrors.Inc()
		return nil, fmt.Errorf("engine: %w", err)
	}
	c.db.met.StmtExecuted.Inc()
	return &exec.Result{}, nil
}

// rollbackTxn implements ROLLBACK: the explicit transaction's write set
// is discarded. DDL the transaction performed stays (it is
// non-transactional, see txn.Txn).
func (c *Conn) rollbackTxn() (*exec.Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.tx == nil {
		c.db.met.StmtErrors.Inc()
		return nil, errors.New("engine: no transaction in progress")
	}
	tx := c.tx
	c.tx = nil
	tx.Rollback()
	c.db.mgr.Release(tx)
	c.db.met.StmtExecuted.Inc()
	return &exec.Result{}, nil
}

// execStatement runs one parsed statement inside tx. auto marks an
// ephemeral autocommit transaction, which commits on success and rolls
// back on failure; inside an explicit transaction a failed statement
// instead rolls back to a savepoint taken at its start, leaving the
// transaction's earlier work intact and the transaction usable. src is
// the text position diagnostics refer to (the whole script for script
// statements); stmtSQL the single statement's own text. p, when
// non-nil, carries the statement's cached semantic verdict, validated
// against the transaction snapshot's catalog version; script statements
// pass nil (their check already ran against the script overlay). trace,
// when non-nil, receives the executor's decision log for the duration;
// args are the values bound to the statement's ? parameters.
func (db *Database) execStatement(ctx context.Context, tx *txn.Txn, auto bool, st parse.Statement, p *prepared, src, stmtSQL string, trace func(string), args []value.Value) (*exec.Result, error) {
	if p != nil {
		if err := db.verdict(p, src, tx, tx.CatalogVersion()); err != nil {
			// EXPLAIN of a semantically invalid query reports the
			// diagnostic as its plan instead of failing: the tool's whole
			// purpose is to show what the engine makes of the statement.
			var se *semck.Error
			if _, isExplain := st.(*parse.Explain); isExplain && errors.As(err, &se) {
				if auto {
					tx.Rollback()
				}
				db.met.StmtExecuted.Inc()
				s := schema.New("", schema.Column{Name: "QUERY PLAN", Type: value.TypeString})
				row := schema.Row{value.NewString("error: " + se.Error())}
				return &exec.Result{Schema: s, Rows: []schema.Row{row}}, nil
			}
			if auto {
				tx.Rollback()
			}
			db.met.StmtErrors.Inc()
			return nil, fmt.Errorf("engine: %w\n  in: %s", err, compact(stmtSQL))
		}
	}
	if hook := db.hook.Load(); hook != nil {
		if err := (*hook)(stmtSQL); err != nil {
			if auto {
				tx.Rollback()
			}
			return nil, fmt.Errorf("engine: %w\n  in: %s", err, compact(stmtSQL))
		}
	}
	db.met.StmtExecuted.Inc()
	t1 := time.Now()
	l := db.effLimits(ctx)
	tx.SetLimits(l)
	rt := db.getRuntime()
	rt.Txn = tx
	rt.Limits = l
	rt.Trace = trace
	rt.Args = args
	var sp txn.Savepoint
	if !auto {
		sp = tx.Savepoint()
	}
	res, err := rt.ExecContext(ctx, st)
	db.putRuntime(rt)
	if auto {
		if err == nil {
			err = tx.Commit(ctx)
		} else {
			tx.Rollback()
		}
	} else if err != nil {
		tx.RollbackTo(sp)
	}
	db.met.ExecNanos.Add(int64(time.Since(t1)))
	if err != nil {
		db.met.StmtErrors.Inc()
		return nil, fmt.Errorf("engine: %w%s\n  in: %s", err, posSuffix(err, src), compact(stmtSQL))
	}
	if res.Schema != nil {
		db.met.RowsReturned.Add(int64(len(res.Rows)))
	}
	return res, nil
}

// getRuntime takes a pooled executor runtime; putRuntime returns it.
// Pooling keeps the autocommit fast path allocation-free and lets a
// runtime's view-plan and join-order caches survive across statements.
func (db *Database) getRuntime() *exec.Runtime {
	return db.rtPool.Get().(*exec.Runtime)
}

func (db *Database) putRuntime(rt *exec.Runtime) {
	rt.Txn = nil
	rt.Trace = nil
	rt.Args = nil
	db.rtPool.Put(rt)
}
