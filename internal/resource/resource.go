// Package resource defines the typed failure taxonomy and the resource
// limits of the resilient execution layer. The paper's kernel lives on
// top of a relational server (Figure 3); a runaway or failing MINE RULE
// evaluation must surface as a typed error the embedding application can
// classify — never as a crash or an unbounded allocation.
//
// The taxonomy:
//
//   - ErrCanceled — the run was stopped by its context (user cancel or
//     deadline). errors.Is matches both ErrCanceled and the underlying
//     context error (context.Canceled / context.DeadlineExceeded).
//   - ErrBudgetExceeded — a Limits ceiling tripped; the concrete
//     *BudgetError names the resource and the limit.
//   - *InternalError — a bug: a panic recovered at a kernel or engine
//     entry boundary, with the stack preserved for the report.
package resource

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Limits bounds one run. The zero value means unlimited.
type Limits struct {
	// MaxRows caps the rows materialized by any single SQL statement
	// across its operators (scans, joins, grouping, projection).
	MaxRows int
	// MaxCandidates caps the candidate itemsets / lattice nodes the
	// mining core may generate.
	MaxCandidates int
	// MaxRuntime is the wall-clock ceiling for a whole run.
	MaxRuntime time.Duration
	// MaxPageIO caps the WAL pages one commit frame may take, checked
	// before the frame is logged. An autocommit statement is one frame.
	// An explicit transaction is one frame at COMMIT, and so are a CSV
	// import and a mine's postprocessor, which writes all of the mine's
	// output rows. It has no effect on an in-memory database.
	MaxPageIO int
}

// ErrCanceled is the sentinel matched by every cancellation error.
var ErrCanceled = errors.New("canceled")

// ErrBudgetExceeded is the sentinel matched by every budget error.
var ErrBudgetExceeded = errors.New("resource budget exceeded")

// ErrIO is the sentinel matched by every durable-storage I/O failure
// (WAL append or fsync, heap page read/write, checkpoint swap). The
// concrete *IOError names the operation and wraps the OS error.
var ErrIO = errors.New("storage I/O failed")

// ErrDegraded is the sentinel matched when the durable store has lost
// its durability guarantee — a WAL fsync failed, or the log could not
// be repaired after a torn append — and has flipped into read-only
// degraded mode. Queries keep working; every mutation, checkpoint, and
// close returns the same *DegradedError until the directory is
// reopened (which re-establishes durability from the on-disk state).
var ErrDegraded = errors.New("storage degraded: durability lost")

// ErrCorruptPage is the sentinel matched when a heap page fails its
// CRC32C checksum at read time: the bits on disk are not the bits that
// were written (rot, torn write, or a lost write reading back zeroes).
var ErrCorruptPage = errors.New("corrupt page: checksum mismatch")

// ErrLockTimeout is the sentinel matched when a writer gave up waiting
// for a table lock. The engine has no waits-for graph; a bounded wait
// doubles as deadlock detection (the victim is whoever times out first),
// so the concrete *LockTimeoutError names the contended table and the
// current holder to make the conflict diagnosable.
var ErrLockTimeout = errors.New("lock wait timed out")

// CancelError wraps the context error that stopped a run. errors.Is
// matches ErrCanceled (via Is) and the context cause (via Unwrap).
type CancelError struct {
	Cause error
}

// Canceled wraps a context error into a CancelError. A nil cause
// defaults to context.Canceled.
func Canceled(cause error) error {
	if cause == nil {
		cause = context.Canceled
	}
	return &CancelError{Cause: cause}
}

// Check returns a CancelError when ctx is already done, nil otherwise.
// A nil ctx never trips.
func Check(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return Canceled(err)
	}
	return nil
}

func (e *CancelError) Error() string { return "canceled: " + e.Cause.Error() }

// Unwrap exposes the context cause.
func (e *CancelError) Unwrap() error { return e.Cause }

// Is matches the ErrCanceled sentinel.
func (e *CancelError) Is(target error) bool { return target == ErrCanceled }

// BudgetError reports which Limits ceiling tripped.
type BudgetError struct {
	// Resource names the exhausted budget ("rows", "candidates").
	Resource string
	// Limit is the configured ceiling.
	Limit int
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("%s budget exceeded (limit %d)", e.Resource, e.Limit)
}

// Is matches the ErrBudgetExceeded sentinel.
func (e *BudgetError) Is(target error) bool { return target == ErrBudgetExceeded }

// IOError reports a failed durable-storage operation. It joins the
// taxonomy beside CancelError and BudgetError: an embedding application
// can classify disk trouble (retry, alert, fail over) separately from
// budget trips and bugs.
type IOError struct {
	// Op names the failing operation ("wal append", "wal fsync",
	// "page read", "page write", "checkpoint").
	Op string
	// Err is the underlying error, usually from the OS.
	Err error
}

// NewIOError wraps err as a typed storage I/O failure.
func NewIOError(op string, err error) *IOError { return &IOError{Op: op, Err: err} }

func (e *IOError) Error() string { return fmt.Sprintf("storage: %s: %v", e.Op, e.Err) }

// Unwrap exposes the underlying OS error.
func (e *IOError) Unwrap() error { return e.Err }

// Is matches the ErrIO sentinel.
func (e *IOError) Is(target error) bool { return target == ErrIO }

// DegradedError is the sticky error of a store that can no longer
// promise durability (fsyncgate semantics: a failed fsync may or may
// not have persisted the data, and retrying the fsync cannot tell —
// the page cache already dropped the dirty flag). errors.Is matches
// ErrDegraded, and via the wrapped cause usually ErrIO too.
type DegradedError struct {
	// Cause is the I/O failure that poisoned the store.
	Cause error
}

func (e *DegradedError) Error() string {
	return "storage degraded (read-only): " + e.Cause.Error()
}

// Unwrap exposes the poisoning I/O error.
func (e *DegradedError) Unwrap() error { return e.Cause }

// Is matches the ErrDegraded sentinel.
func (e *DegradedError) Is(target error) bool { return target == ErrDegraded }

// LockTimeoutError reports a writer that abandoned its wait for a
// table lock — possible deadlock, or just a long-running holder. The
// transaction that receives it has NOT lost its other locks or its
// snapshot; the statement fails and the application decides whether to
// retry or roll back. errors.Is matches ErrLockTimeout, and when the
// wait ended because the statement's context expired, the wrapped
// cause matches ErrCanceled too.
type LockTimeoutError struct {
	// Table is the contended resource.
	Table string
	// Wait is how long the writer waited before giving up.
	Wait time.Duration
	// Cause is non-nil when the wait ended on the context rather than
	// the deadlock timeout.
	Cause error
}

func (e *LockTimeoutError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("lock wait on table %q abandoned after %v: %v", e.Table, e.Wait, e.Cause)
	}
	return fmt.Sprintf("lock wait on table %q timed out after %v (possible deadlock)", e.Table, e.Wait)
}

// Unwrap exposes the context error that cut the wait short, if any.
func (e *LockTimeoutError) Unwrap() error { return e.Cause }

// Is matches the ErrLockTimeout sentinel.
func (e *LockTimeoutError) Is(target error) bool { return target == ErrLockTimeout }

// InternalError is a recovered panic: an engine or kernel bug surfaced
// as an error instead of a crash, with the stack preserved.
type InternalError struct {
	// Op is the boundary that recovered ("exec", "core").
	Op string
	// Recovered is the panic value.
	Recovered interface{}
	// Stack is the goroutine stack at recovery time.
	Stack []byte
}

// NewInternalError builds an InternalError from a recovered panic value.
func NewInternalError(op string, recovered interface{}, stack []byte) *InternalError {
	return &InternalError{Op: op, Recovered: recovered, Stack: stack}
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("%s: internal error: %v", e.Op, e.Recovered)
}

// Unwrap exposes a panic value that was itself an error.
func (e *InternalError) Unwrap() error {
	if err, ok := e.Recovered.(error); ok {
		return err
	}
	return nil
}

// ---------------------------------------------------------------------------
// Per-call limits carried on the context.

// limitsKey is the context key WithLimits stores under.
type limitsKey struct{}

// WithLimits returns a context carrying l as the resource bounds for
// every statement executed under it. The engine resolves limits at
// statement start: a context-carried value overrides the engine-wide
// default, so concurrent sessions can run under different budgets
// against one shared engine without mutating any global state.
func WithLimits(ctx context.Context, l Limits) context.Context {
	return context.WithValue(ctx, limitsKey{}, l)
}

// LimitsFrom extracts the limits carried by WithLimits, reporting
// whether the context carries any.
func LimitsFrom(ctx context.Context) (Limits, bool) {
	if ctx == nil {
		return Limits{}, false
	}
	l, ok := ctx.Value(limitsKey{}).(Limits)
	return l, ok
}
