package server

import (
	"bufio"
	"context"
	"net"
	"reflect"
	"testing"
	"time"

	"minerule/internal/resource"
	"minerule/internal/server/wire"
	"minerule/internal/sql/engine"
)

// startTestServer serves a fresh engine on a loopback listener and
// returns its address plus a shutdown func.
func startTestServer(t *testing.T, cfg Config) string {
	t.Helper()
	db := engine.New()
	srv := New(db, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ctx, ln)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return ln.Addr().String()
}

// handshake sends a Startup frame with the given options and returns
// the response frame.
func handshake(t *testing.T, conn net.Conn, options map[string]string) (byte, []byte) {
	t.Helper()
	var b wire.Builder
	b.PutU32(wire.ProtocolVersion)
	b.PutU16(uint16(len(options)))
	for k, v := range options {
		b.PutString(k)
		b.PutString(v)
	}
	if err := wire.WriteFrame(conn, wire.MsgStartup, b.B); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := wire.ReadFrame(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	return typ, payload
}

func errCodeOf(t *testing.T, payload []byte) string {
	t.Helper()
	p := wire.Parser{B: payload}
	code := p.String()
	_ = p.String()
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	return code
}

func TestStartupAuth(t *testing.T) {
	addr := startTestServer(t, Config{AuthToken: "sesame"})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	typ, payload := handshake(t, conn, map[string]string{"token": "wrong"})
	if typ != wire.MsgError || errCodeOf(t, payload) != wire.CodeAuth {
		t.Fatalf("want AUTH error, got frame %q code %q", typ, errCodeOf(t, payload))
	}

	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if typ, _ := handshake(t, conn2, map[string]string{"token": "sesame"}); typ != wire.MsgAuthOK {
		t.Fatalf("want AuthOK with the right token, got %q", typ)
	}
}

func TestStartupVersionMismatch(t *testing.T) {
	addr := startTestServer(t, Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var b wire.Builder
	b.PutU32(99)
	b.PutU16(0)
	if err := wire.WriteFrame(conn, wire.MsgStartup, b.B); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.MsgError || errCodeOf(t, payload) != wire.CodeProtocol {
		t.Fatalf("want PROTOCOL error, got %q %q", typ, errCodeOf(t, payload))
	}
}

func TestAdmissionCap(t *testing.T) {
	addr := startTestServer(t, Config{MaxConns: 1})

	conn1, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn1.Close()
	if typ, _ := handshake(t, conn1, nil); typ != wire.MsgAuthOK {
		t.Fatalf("first connection: want AuthOK, got %q", typ)
	}

	// Second connection must be refused with a typed ADMISSION error
	// before any handshake.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	typ, payload, err := wire.ReadFrame(conn2)
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.MsgError || errCodeOf(t, payload) != wire.CodeAdmission {
		t.Fatalf("want ADMISSION error, got %q %q", typ, errCodeOf(t, payload))
	}

	// Closing the first connection frees the slot.
	conn1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn3, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		typ, _, err := func() (byte, []byte, error) {
			var b wire.Builder
			b.PutU32(wire.ProtocolVersion)
			b.PutU16(0)
			if err := wire.WriteFrame(conn3, wire.MsgStartup, b.B); err != nil {
				return 0, nil, err
			}
			return wire.ReadFrame(conn3)
		}()
		conn3.Close()
		if err == nil && typ == wire.MsgAuthOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slot never freed after first connection closed")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestDrainRefusesNewConnections(t *testing.T) {
	db := engine.New()
	srv := New(db, Config{DrainTimeout: time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(ctx, ln); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()

	addr := ln.Addr().String()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if typ, _ := handshake(t, conn, nil); typ != wire.MsgAuthOK {
		t.Fatalf("want AuthOK, got %q", typ)
	}

	cancel() // begin drain; the idle session's connection is closed
	<-done
	if _, _, err := wire.ReadFrame(conn); err == nil {
		t.Fatal("idle session must be disconnected by drain")
	}
	conn.Close()
	if _, err := net.Dial("tcp", addr); err == nil {
		t.Fatal("listener must be closed after drain")
	}
}

func TestCapLimits(t *testing.T) {
	def := resource.Limits{MaxRows: 100, MaxCandidates: 0, MaxPageIO: 50, MaxRuntime: time.Minute}
	cases := []struct {
		name string
		req  resource.Limits
		want resource.Limits
	}{
		{"zero request inherits defaults", resource.Limits{},
			resource.Limits{MaxRows: 100, MaxPageIO: 50, MaxRuntime: time.Minute}},
		{"tighter request honoured", resource.Limits{MaxRows: 10, MaxPageIO: 5, MaxRuntime: time.Second},
			resource.Limits{MaxRows: 10, MaxPageIO: 5, MaxRuntime: time.Second}},
		{"looser request capped", resource.Limits{MaxRows: 1000, MaxPageIO: 500, MaxRuntime: time.Hour},
			resource.Limits{MaxRows: 100, MaxPageIO: 50, MaxRuntime: time.Minute}},
		{"unbounded default lets any request through", resource.Limits{MaxCandidates: 7},
			resource.Limits{MaxRows: 100, MaxCandidates: 7, MaxPageIO: 50, MaxRuntime: time.Minute}},
	}
	for _, c := range cases {
		if got := capLimits(def, c.req); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: got %+v want %+v", c.name, got, c.want)
		}
	}
}
