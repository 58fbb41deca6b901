// Package server is the engine's network front end: a TCP server
// speaking the length-framed wire protocol of internal/server/wire,
// with a session layer that gives every connection its own resource
// Limits, cancellation path and prepared-statement handles over one
// shared engine. It is the paper's tightly-coupled claim extended over
// the network — remote clients reach the mining kernel through the
// same SQL surface the embedded API uses, via the minerule/driver
// database/sql driver or any implementation of the protocol.
//
// Concurrency model: each session runs its statements on its own
// engine connection, concurrently with the others under MVCC snapshots
// and table locks; its context carries its own resource.Limits, and a
// client disconnect cancels the statement it was running without
// touching its neighbours. Admission control caps concurrent
// connections with a typed wire error instead of an ever-growing accept
// backlog, and shutdown drains: no new connections, in-flight
// statements finish (until the drain deadline force-cancels them), then
// the listener's goroutines exit.
package server

import (
	"context"
	"crypto/subtle"
	"fmt"
	"net"
	"sync"
	"time"

	"minerule/internal/obsv"
	"minerule/internal/resource"
	"minerule/internal/sql/engine"
)

// Config tunes a Server.
type Config struct {
	// MaxConns caps concurrently admitted connections; further ones are
	// refused with a typed ADMISSION error. <= 0 means DefaultMaxConns.
	MaxConns int
	// AuthToken, when non-empty, must be presented by every Startup
	// frame (option "token"); mismatches fail with an AUTH error.
	AuthToken string
	// DefaultLimits bounds every session that does not set its own, and
	// caps the ones that do: a session may tighten a non-zero server
	// bound but never exceed it.
	DefaultLimits resource.Limits
	// DrainTimeout bounds graceful shutdown: after it, in-flight
	// statements are force-canceled. <= 0 means 5s.
	DrainTimeout time.Duration
	// StartupTimeout bounds how long a fresh connection may take to
	// complete its handshake before being dropped. <= 0 means 10s.
	StartupTimeout time.Duration
	// Logf, when non-nil, receives one line per connection-level event.
	Logf func(format string, args ...interface{})
}

// DefaultMaxConns is the admission cap when Config.MaxConns is unset.
const DefaultMaxConns = 64

// Server serves the wire protocol over one engine.
type Server struct {
	db  *engine.Database
	met *obsv.Metrics
	cfg Config

	mu       sync.Mutex
	sessions map[*session]struct{} // guarded by mu
	active   int                   // guarded by mu
	draining bool                  // guarded by mu
	nextID   uint64                // guarded by mu
}

// New wraps an engine in a wire server. The engine may be shared with
// embedded callers (the support UI, the CLI): every statement runs in
// its own transaction, so that is safe.
func New(db *engine.Database, cfg Config) *Server {
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = DefaultMaxConns
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	if cfg.StartupTimeout <= 0 {
		cfg.StartupTimeout = 10 * time.Second
	}
	return &Server{db: db, met: db.Metrics(), cfg: cfg, sessions: make(map[*session]struct{})}
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// ListenAndServe listens on addr and serves until ctx is done, then
// drains and returns nil (or the accept error that stopped it early).
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", addr, err)
	}
	return s.Serve(ctx, ln)
}

// Serve accepts connections from ln until ctx is done, then performs a
// graceful drain: the listener closes, sessions finish their in-flight
// statement, and after Config.DrainTimeout stragglers are
// force-canceled. Serve owns ln and closes it.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	// sessionCtx outlives ctx by the drain timeout: statements started
	// before shutdown keep the caller's values but are not killed by the
	// serve context itself — only the drain deadline cancels them.
	sessionCtx, cancelSessions := context.WithCancel(context.WithoutCancel(ctx))
	defer cancelSessions()

	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			ln.Close() // unblocks Accept
		case <-done:
			ln.Close()
		}
	}()

	var wg sync.WaitGroup
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				s.drain(cancelSessions, &wg)
				return nil
			}
			return fmt.Errorf("server: accept: %w", err)
		}
		if !s.admit(conn) {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.serveConn(sessionCtx, conn)
		}()
	}
}

// admit applies the connection cap. A refused connection receives one
// typed ADMISSION error frame and is closed — a client sees a clean
// "try later", not a hang in the accept queue.
func (s *Server) admit(conn net.Conn) bool {
	s.mu.Lock()
	if s.draining || s.active >= s.cfg.MaxConns {
		draining := s.draining
		s.mu.Unlock()
		s.met.SrvConnsRejected.Inc()
		code := wireAdmissionCode(draining)
		refuseConn(conn, code, fmt.Sprintf("server: %s", map[bool]string{
			true: "shutting down", false: "connection limit reached"}[draining]))
		return false
	}
	s.active++
	s.mu.Unlock()
	s.met.SrvConnsOpened.Inc()
	return true
}

// serveConn runs one admitted connection's session to completion.
func (s *Server) serveConn(ctx context.Context, conn net.Conn) {
	s.mu.Lock()
	s.nextID++
	sess := newSession(s, conn, s.nextID)
	s.sessions[sess] = struct{}{}
	s.mu.Unlock()

	sess.run(ctx)

	s.mu.Lock()
	delete(s.sessions, sess)
	s.active--
	s.mu.Unlock()
	s.met.SrvConnsClosed.Inc()
}

// drain implements graceful shutdown: mark draining (sessions exit
// after their current request), nudge idle sessions out of their blocking
// read by closing their connections, and wait up to DrainTimeout before
// force-canceling whatever is still running.
func (s *Server) drain(cancelSessions context.CancelFunc, wg *sync.WaitGroup) {
	s.mu.Lock()
	s.draining = true
	for sess := range s.sessions {
		sess.beginDrain()
	}
	s.mu.Unlock()

	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(s.cfg.DrainTimeout):
		s.logf("server: drain timeout, force-canceling sessions")
		cancelSessions()
		<-finished
	}
}

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// SessionCount reports the currently admitted connections.
func (s *Server) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active
}

// checkToken validates a presented credential in constant time.
func (s *Server) checkToken(tok string) bool {
	if s.cfg.AuthToken == "" {
		return true
	}
	return subtle.ConstantTimeCompare([]byte(tok), []byte(s.cfg.AuthToken)) == 1
}

// capLimits combines the server default with a session's requested
// bounds: a zero request inherits the default; a non-zero request is
// honoured but may not exceed a non-zero server bound.
func capLimits(def, req resource.Limits) resource.Limits {
	return resource.Limits{
		MaxRows:       capAt(def.MaxRows, req.MaxRows),
		MaxCandidates: capAt(def.MaxCandidates, req.MaxCandidates),
		MaxPageIO:     capAt(def.MaxPageIO, req.MaxPageIO),
		MaxRuntime:    capAt(def.MaxRuntime, req.MaxRuntime),
	}
}

// capAt applies capLimits' rule to one bound.
func capAt[T int | time.Duration](d, r T) T {
	if r <= 0 || d > 0 && r > d {
		return d
	}
	return r
}
