package server

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"minerule/internal/server/wire"
	"minerule/internal/sql/engine"
)

// countingListener hands out connections that count their Write calls:
// with a buffered session writer, one Write is one flush.
type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestResultRowsShareWrites: row frames ride the session's write buffer
// and only the frame that ends the response flushes, so a 1500-row
// SELECT costs about one connection write per buffer-full of frames,
// not one per row.
func TestResultRowsShareWrites(t *testing.T) {
	const rows = 1500
	db := engine.New()
	var b strings.Builder
	b.WriteString("CREATE TABLE t (a INTEGER, b VARCHAR); INSERT INTO t VALUES ")
	for i := 0; i < rows; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, 'row%d')", i, i)
	}
	if err := db.ExecScript(b.String()); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var writes atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		New(db, Config{}).Serve(ctx, countingListener{ln, &writes})
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if typ, _ := handshake(t, conn, nil); typ != wire.MsgAuthOK {
		t.Fatalf("want AuthOK, got %q", typ)
	}
	before := writes.Load()
	var q wire.Builder
	q.PutString("SELECT a, b FROM t")
	if err := wire.WriteFrame(conn, wire.MsgQuery, q.B); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	got, bytes := 0, 0
	for {
		typ, payload, err := wire.ReadFrame(br)
		if err != nil {
			t.Fatal(err)
		}
		bytes += 5 + len(payload)
		if typ == wire.MsgError {
			t.Fatalf("query failed: %s", errCodeOf(t, payload))
		}
		if typ == wire.MsgDataRow {
			got++
		}
		if typ == wire.MsgComplete {
			break
		}
	}
	if got != rows {
		t.Fatalf("got %d rows, want %d", got, rows)
	}
	n := writes.Load() - before
	if limit := int64(bytes/4096 + 2); n > limit {
		t.Fatalf("%d-row result (%d bytes) took %d connection writes, want at most %d", rows, bytes, n, limit)
	}
	t.Logf("%d rows, %d bytes, %d writes", rows, bytes, n)
}
