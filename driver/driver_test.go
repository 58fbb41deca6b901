package driver_test

import (
	"bufio"
	"context"
	"database/sql"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"minerule"
	mrdriver "minerule/driver"
	"minerule/internal/server/wire"
)

// startServer serves a fresh in-memory system on a loopback listener
// and returns its address. The server drains on test cleanup.
func startServer(t *testing.T, cfg minerule.ServerConfig) (string, *minerule.System) {
	t.Helper()
	sys, err := minerule.Open()
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = 2 * time.Second
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := sys.ServeListener(ctx, ln, cfg); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		cancel()
		<-done
		sys.Close()
	})
	return ln.Addr().String(), sys
}

func openDB(t *testing.T, dsn string) *sql.DB {
	t.Helper()
	db, err := sql.Open("minerule", dsn)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

const purchaseDDL = `
	CREATE TABLE Purchase (tr INTEGER, cust VARCHAR, item VARCHAR, dt DATE, price FLOAT, qty INTEGER);
	INSERT INTO Purchase VALUES
		(1, 'cust1', 'ski_pants',    DATE '1995-12-17', 140, 1),
		(1, 'cust1', 'hiking_boots', DATE '1995-12-17', 180, 1),
		(2, 'cust2', 'col_shirts',   DATE '1995-12-18',  25, 2),
		(2, 'cust2', 'brown_boots',  DATE '1995-12-18', 150, 1),
		(2, 'cust2', 'jackets',      DATE '1995-12-18', 300, 1),
		(3, 'cust1', 'jackets',      DATE '1995-12-18', 300, 1),
		(4, 'cust2', 'col_shirts',   DATE '1995-12-19',  25, 3),
		(4, 'cust2', 'jackets',      DATE '1995-12-19', 300, 2);
`

// TestRemoteEndToEnd is the acceptance path: a stock Go program using
// database/sql connects, creates and loads a table, runs MINE RULE and
// streams the mined rules back as rows — all remotely.
func TestRemoteEndToEnd(t *testing.T) {
	addr, _ := startServer(t, minerule.ServerConfig{})
	db := openDB(t, "tcp://"+addr)

	if _, err := db.Exec(purchaseDDL); err != nil {
		t.Fatal(err)
	}

	// Plain query with typed columns.
	rows, err := db.Query("SELECT item, price, qty FROM Purchase WHERE tr = 1")
	if err != nil {
		t.Fatal(err)
	}
	cols, _ := rows.Columns()
	if want := []string{"item", "price", "qty"}; strings.Join(cols, ",") != strings.Join(want, ",") {
		t.Fatalf("columns = %v", cols)
	}
	var n int
	for rows.Next() {
		var item string
		var price float64
		var qty int64
		if err := rows.Scan(&item, &price, &qty); err != nil {
			t.Fatal(err)
		}
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("rows = %d, want 2", n)
	}

	// Aggregation through QueryRow.
	var total int64
	if err := db.QueryRow("SELECT COUNT(*) FROM Purchase").Scan(&total); err != nil {
		t.Fatal(err)
	}
	if total != 8 {
		t.Fatalf("count = %d", total)
	}

	// MINE RULE streams rules as ordinary rows.
	rrows, err := db.Query(`MINE RULE RemoteSets AS
		SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
		FROM Purchase GROUP BY tr
		EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.8`)
	if err != nil {
		t.Fatal(err)
	}
	cols, _ = rrows.Columns()
	if want := "BODY,HEAD,SUPPORT,CONFIDENCE"; strings.Join(cols, ",") != want {
		t.Fatalf("rule columns = %v", cols)
	}
	var mined int
	for rrows.Next() {
		var body, head string
		var sup, conf float64
		if err := rrows.Scan(&body, &head, &sup, &conf); err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(body, "{") || sup <= 0 || conf <= 0 {
			t.Fatalf("bad rule row: %s => %s (%v, %v)", body, head, sup, conf)
		}
		mined++
	}
	if err := rrows.Err(); err != nil {
		t.Fatal(err)
	}
	if mined == 0 {
		t.Fatal("no rules streamed")
	}

	// The output tables exist server-side like an embedded run's.
	var ruleRows int64
	if err := db.QueryRow("SELECT COUNT(*) FROM RemoteSets").Scan(&ruleRows); err != nil {
		t.Fatal(err)
	}
	if int(ruleRows) != mined {
		t.Fatalf("output table has %d rules, streamed %d", ruleRows, mined)
	}
}

func TestPreparedStatements(t *testing.T) {
	addr, _ := startServer(t, minerule.ServerConfig{})
	db := openDB(t, "tcp://"+addr)

	if _, err := db.Exec("CREATE TABLE kv (k VARCHAR, v INTEGER, price FLOAT, ok BOOLEAN, d DATE)"); err != nil {
		t.Fatal(err)
	}
	ins, err := db.Prepare("INSERT INTO kv VALUES (?, ?, ?, ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	defer ins.Close()
	date := time.Date(1998, 2, 25, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 5; i++ {
		if _, err := ins.Exec(fmt.Sprintf("it's k%d", i), int64(i), float64(i)/2, i%2 == 0, date); err != nil {
			t.Fatal(err)
		}
	}

	sel, err := db.Prepare("SELECT k, v, price, ok, d FROM kv WHERE v >= ?")
	if err != nil {
		t.Fatal(err)
	}
	defer sel.Close()
	rows, err := sel.Query(int64(3))
	if err != nil {
		t.Fatal(err)
	}
	var n int
	for rows.Next() {
		var k string
		var v int64
		var price float64
		var ok bool
		var d time.Time
		if err := rows.Scan(&k, &v, &price, &ok, &d); err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(k, "it's k") || !d.Equal(date) {
			t.Fatalf("row %q %v", k, d)
		}
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("rows = %d, want 2", n)
	}

	// A bad statement fails at Prepare, not first use.
	if _, err := db.Prepare("SELECT nope FROM missing"); err == nil {
		t.Fatal("want eager prepare failure")
	}
}

// TestPrepareInvalidView proves a view body is validated at Prepare: the
// server's semantic check rejects it as INVALID, and no view appears.
func TestPrepareInvalidView(t *testing.T) {
	addr, _ := startServer(t, minerule.ServerConfig{})
	db := openDB(t, "tcp://"+addr)
	if _, err := db.Exec("CREATE TABLE t (a INTEGER, b VARCHAR)"); err != nil {
		t.Fatal(err)
	}
	_, err := db.Prepare("CREATE VIEW v AS SELECT zz FROM t")
	var de *mrdriver.Error
	if !errors.As(err, &de) || de.Code != wire.CodeInvalid || !strings.Contains(de.Msg, "semck") {
		t.Fatalf("Prepare = %v, want an INVALID semck error", err)
	}
	if _, err := db.Query("SELECT * FROM v"); err == nil {
		t.Fatal("rejected view v exists")
	}
}

func TestAuthTokenDSN(t *testing.T) {
	addr, _ := startServer(t, minerule.ServerConfig{AuthToken: "sesame"})

	db := openDB(t, "tcp://"+addr+"?token=sesame")
	if err := db.Ping(); err != nil {
		t.Fatal(err)
	}

	bad := openDB(t, "tcp://"+addr+"?token=wrong")
	err := bad.Ping()
	if err == nil {
		t.Fatal("want auth failure")
	}
	var werr *mrdriver.Error
	if !errors.As(err, &werr) || werr.Code != "AUTH" {
		t.Fatalf("want typed AUTH error, got %v", err)
	}
}

// TestConcurrentSessions runs N driver connections against one server,
// mixing DDL, DML, queries and MINE RULE. Run under -race this is the
// regression test for the session/limits plumbing.
func TestConcurrentSessions(t *testing.T) {
	addr, _ := startServer(t, minerule.ServerConfig{MaxConns: 16})
	seed := openDB(t, "tcp://"+addr)
	if _, err := seed.Exec(purchaseDDL); err != nil {
		t.Fatal(err)
	}

	const workers = 6
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			db, err := sql.Open("minerule", "tcp://"+addr)
			if err != nil {
				errc <- err
				return
			}
			defer db.Close()
			db.SetMaxOpenConns(1)

			tbl := fmt.Sprintf("w%d", w)
			if _, err := db.Exec(fmt.Sprintf("CREATE TABLE %s (a INTEGER, b VARCHAR)", tbl)); err != nil {
				errc <- fmt.Errorf("worker %d create: %w", w, err)
				return
			}
			for i := 0; i < 20; i++ {
				if _, err := db.Exec(fmt.Sprintf("INSERT INTO %s VALUES (%d, 'x%d')", tbl, i, i)); err != nil {
					errc <- fmt.Errorf("worker %d insert: %w", w, err)
					return
				}
			}
			var cnt int64
			if err := db.QueryRow(fmt.Sprintf("SELECT COUNT(*) FROM %s", tbl)).Scan(&cnt); err != nil {
				errc <- fmt.Errorf("worker %d count: %w", w, err)
				return
			}
			if cnt != 20 {
				errc <- fmt.Errorf("worker %d count = %d", w, cnt)
				return
			}
			rows, err := db.Query(fmt.Sprintf(`MINE RULE Out%d AS
				SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
				FROM Purchase GROUP BY tr
				EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.8`, w))
			if err != nil {
				errc <- fmt.Errorf("worker %d mine: %w", w, err)
				return
			}
			var mined int
			for rows.Next() {
				var body, head string
				var sup, conf float64
				if err := rows.Scan(&body, &head, &sup, &conf); err != nil {
					errc <- fmt.Errorf("worker %d scan: %w", w, err)
					return
				}
				mined++
			}
			if err := rows.Err(); err != nil {
				errc <- fmt.Errorf("worker %d rules: %w", w, err)
				return
			}
			if mined == 0 {
				errc <- fmt.Errorf("worker %d mined nothing", w)
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestPerSessionLimits verifies one session's budget trips without
// affecting a concurrent neighbour on the same server.
func TestPerSessionLimits(t *testing.T) {
	addr, _ := startServer(t, minerule.ServerConfig{})
	seed := openDB(t, "tcp://"+addr)
	if _, err := seed.Exec(purchaseDDL); err != nil {
		t.Fatal(err)
	}

	bounded := openDB(t, "tcp://"+addr+"?max_rows=3")
	free := openDB(t, "tcp://"+addr)

	var wg sync.WaitGroup
	wg.Add(2)
	var boundedErr, freeErr error
	go func() {
		defer wg.Done()
		rows, err := bounded.Query("SELECT * FROM Purchase")
		if err == nil {
			for rows.Next() {
			}
			err = rows.Err()
			rows.Close()
		}
		boundedErr = err
	}()
	go func() {
		defer wg.Done()
		var cnt int64
		freeErr = free.QueryRow("SELECT COUNT(*) FROM Purchase").Scan(&cnt)
		if freeErr == nil && cnt != 8 {
			freeErr = fmt.Errorf("count = %d", cnt)
		}
	}()
	wg.Wait()

	if boundedErr == nil {
		t.Fatal("bounded session: want budget error")
	}
	if !errors.Is(boundedErr, minerule.ErrBudgetExceeded) {
		t.Fatalf("bounded session: want ErrBudgetExceeded, got %v", boundedErr)
	}
	var werr *mrdriver.Error
	if !errors.As(boundedErr, &werr) || werr.Code != "BUDGET" {
		t.Fatalf("bounded session: want wire code BUDGET, got %v", boundedErr)
	}
	if freeErr != nil {
		t.Fatalf("free session must be unaffected: %v", freeErr)
	}
}

// TestServerCapsSessionLimits: a session may tighten but not exceed the
// server's default bounds.
func TestServerCapsSessionLimits(t *testing.T) {
	addr, _ := startServer(t, minerule.ServerConfig{
		DefaultLimits: minerule.Limits{MaxRows: 4},
	})
	seed := openDB(t, "tcp://"+addr+"?max_rows=1000000") // ask for more; get capped
	if _, err := seed.Exec("CREATE TABLE t (a INTEGER)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := seed.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d)", i)); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := seed.Query("SELECT * FROM t") // materializes 4 rows: at the cap
	if err == nil {
		for rows.Next() {
		}
		err = rows.Err()
		rows.Close()
	}
	if err != nil {
		t.Fatalf("4 rows at the cap must pass: %v", err)
	}
	if _, err := seed.Exec("INSERT INTO t VALUES (4)"); err != nil {
		t.Fatal(err)
	}
	rows, err = seed.Query("SELECT * FROM t") // 5 rows: beyond the capped bound
	if err == nil {
		for rows.Next() {
		}
		err = rows.Err()
		rows.Close()
	}
	if !errors.Is(err, minerule.ErrBudgetExceeded) {
		t.Fatalf("want capped budget trip, got %v", err)
	}
}

// TestMidQueryDisconnectCancellation cancels a client context mid-query
// and verifies the cancellation reaches the engine: the statement dies
// server-side (freeing the engine for the next session) instead of
// running to completion against a vanished client.
func TestMidQueryDisconnectCancellation(t *testing.T) {
	addr, sys := startServer(t, minerule.ServerConfig{})
	seed := openDB(t, "tcp://"+addr)
	if _, err := seed.Exec("CREATE TABLE big (a INTEGER, b INTEGER)"); err != nil {
		t.Fatal(err)
	}
	// Two b values: the join below yields 16M rows, several hundred
	// milliseconds of work even for the streaming join.
	for i := 0; i < 400; i++ {
		if _, err := seed.Exec(fmt.Sprintf("INSERT INTO big VALUES (%d, %d)", i, i%2)); err != nil {
			t.Fatal(err)
		}
	}

	db := openDB(t, "tcp://"+addr)
	ctx, cancel := context.WithCancel(context.Background())
	start := time.Now()
	go func() {
		time.Sleep(150 * time.Millisecond)
		cancel()
	}()
	// A three-way cross product: far too slow to finish before cancel.
	_, err := db.QueryContext(ctx,
		"SELECT COUNT(*) FROM big x, big y, big z WHERE x.b = y.b AND y.b = z.b")
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("want cancellation error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v: did not reach the engine", elapsed)
	}

	// The engine must be free again: a fresh session's statement runs
	// promptly because the canceled one aborted server-side.
	var cnt int64
	if err := seed.QueryRow("SELECT COUNT(*) FROM big").Scan(&cnt); err != nil {
		t.Fatal(err)
	}
	if cnt != 400 {
		t.Fatalf("count = %d", cnt)
	}

	// The canceled statement shows up on the server's counters. Since
	// statements run concurrently (no global engine lock), the fresh
	// COUNT above no longer serializes behind the canceled session's
	// teardown — poll until its disconnect has been accounted.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var metrics strings.Builder
		if err := sys.WriteMetrics(&metrics); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(metrics.String(), "minerule_server_canceled_total 1") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("canceled counter missing:\n%s", grepLines(metrics.String(), "minerule_server"))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestExplainOverTheWire(t *testing.T) {
	addr, _ := startServer(t, minerule.ServerConfig{})
	db := openDB(t, "tcp://"+addr)
	if _, err := db.Exec(purchaseDDL); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Query(`EXPLAIN MINE RULE Never AS
		SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
		FROM Purchase GROUP BY tr
		EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.8`)
	if err != nil {
		t.Fatal(err)
	}
	var plan []string
	for rows.Next() {
		var line string
		if err := rows.Scan(&line); err != nil {
			t.Fatal(err)
		}
		plan = append(plan, line)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(plan, "\n")
	if !strings.Contains(joined, "classification") || !strings.Contains(joined, "Q1") {
		t.Fatalf("unexpected plan:\n%s", joined)
	}
	// EXPLAIN must not have executed anything.
	if _, err := db.Exec("SELECT COUNT(*) FROM Never"); err == nil {
		t.Fatal("EXPLAIN must not create output tables")
	}
}

func TestInvalidStatementKeepsSessionAlive(t *testing.T) {
	addr, _ := startServer(t, minerule.ServerConfig{})
	db := openDB(t, "tcp://"+addr)
	db.SetMaxOpenConns(1)
	if _, err := db.Exec("SELECT FROM nope ("); err == nil {
		t.Fatal("want parse error")
	}
	var one int64
	if err := db.QueryRow("SELECT 1").Scan(&one); err != nil || one != 1 {
		t.Fatalf("session must survive a bad statement: %v", err)
	}
}

func TestDSNValidation(t *testing.T) {
	if _, err := sql.Open("minerule", "http://x"); err == nil {
		db, _ := sql.Open("minerule", "http://x")
		if db != nil {
			if err := db.Ping(); err == nil {
				t.Fatal("want scheme error")
			}
		}
	}
	db, err := sql.Open("minerule", "tcp://127.0.0.1:1?bogus=1")
	if err == nil {
		if err := db.Ping(); err == nil || !strings.Contains(err.Error(), "unknown DSN parameter") {
			t.Fatalf("want unknown-parameter error, got %v", err)
		}
		db.Close()
	}
}

// grepLines filters s to lines containing sub, for failure messages.
func grepLines(s, sub string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, sub) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// TestDriverTransactions round-trips db.BeginTx onto the wire's
// BEGIN/COMMIT/ROLLBACK statements against a booted server: an open
// transaction's writes are invisible to other sessions until Commit,
// and Rollback discards them.
func TestDriverTransactions(t *testing.T) {
	addr, _ := startServer(t, minerule.ServerConfig{})
	db := openDB(t, "tcp://"+addr)
	other := openDB(t, "tcp://"+addr) // independent session: the observer

	if _, err := db.Exec("CREATE TABLE acct (id INTEGER, bal INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO acct VALUES (1, 100), (2, 200)"); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	tx, err := db.BeginTx(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("UPDATE acct SET bal = bal - 10 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("UPDATE acct SET bal = bal + 10 WHERE id = 2"); err != nil {
		t.Fatal(err)
	}
	// The transfer is uncommitted: the observer session must still see
	// the original balances.
	var bal int64
	if err := other.QueryRow("SELECT bal FROM acct WHERE id = 1").Scan(&bal); err != nil {
		t.Fatal(err)
	}
	if bal != 100 {
		t.Fatalf("uncommitted write leaked: observer sees bal=%d, want 100", bal)
	}
	// The transaction sees its own writes.
	if err := tx.QueryRow("SELECT bal FROM acct WHERE id = 1").Scan(&bal); err != nil {
		t.Fatal(err)
	}
	if bal != 90 {
		t.Fatalf("transaction does not see its own write: bal=%d, want 90", bal)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	var sum int64
	if err := other.QueryRow("SELECT SUM(bal) FROM acct").Scan(&sum); err != nil {
		t.Fatal(err)
	}
	if sum != 300 {
		t.Fatalf("sum after commit = %d, want 300", sum)
	}
	if err := other.QueryRow("SELECT bal FROM acct WHERE id = 2").Scan(&bal); err != nil {
		t.Fatal(err)
	}
	if bal != 210 {
		t.Fatalf("bal after commit = %d, want 210", bal)
	}

	// Rollback discards the write set.
	tx, err = db.BeginTx(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("DELETE FROM acct"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	var n int64
	if err := db.QueryRow("SELECT COUNT(*) FROM acct").Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("rows after rollback = %d, want 2", n)
	}

	// Unsupported isolation levels fail at BeginTx, before any frame.
	if _, err := db.BeginTx(ctx, &sql.TxOptions{Isolation: sql.LevelSerializable}); err == nil {
		t.Fatal("want isolation-level error")
	} else if !strings.Contains(err.Error(), "isolation level") {
		t.Fatalf("unexpected error: %v", err)
	}

	// A session that drops its socket mid-transaction must release its
	// locks and roll back. database/sql never abandons a checked-out
	// conn, so speak the wire protocol directly: handshake, BEGIN, one
	// UPDATE, then close the socket with the transaction open.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	bw := bufio.NewWriter(nc)
	send := func(typ byte, payload []byte) {
		t.Helper()
		if err := wire.WriteFrame(bw, typ, payload); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	var sb wire.Builder
	sb.PutU32(wire.ProtocolVersion)
	sb.PutU16(0)
	send(wire.MsgStartup, sb.B)
	if typ, _, err := wire.ReadFrame(br); err != nil || typ != wire.MsgAuthOK {
		t.Fatalf("startup: typ=%q err=%v", typ, err)
	}
	runRaw := func(stmt string) {
		t.Helper()
		var qb wire.Builder
		qb.PutString(stmt)
		send(wire.MsgQuery, qb.B)
		for {
			typ, payload, err := wire.ReadFrame(br)
			if err != nil {
				t.Fatal(err)
			}
			if typ == wire.MsgError {
				t.Fatalf("%s failed: %s", stmt, payload)
			}
			if typ == wire.MsgComplete {
				return
			}
		}
	}
	runRaw("BEGIN")
	runRaw("UPDATE acct SET bal = 0 WHERE id = 1")
	nc.Close() // mid-transaction disconnect
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := db.Exec("UPDATE acct SET bal = 100 WHERE id = 1"); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("table still locked after mid-transaction disconnect: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := db.QueryRow("SELECT bal FROM acct WHERE id = 1").Scan(&bal); err != nil {
		t.Fatal(err)
	}
	if bal != 100 {
		t.Fatalf("bal = %d, want 100 (abandoned transaction must roll back)", bal)
	}
}
