package exec

import (
	"context"

	"minerule/internal/sql/schema"
	"minerule/internal/sql/storage"
)

// TxnView is the executor's window onto the database: every name
// resolution, row read, mutation, and DDL flows through it. The engine
// installs a transaction (internal/sql/txn.Txn satisfies this
// interface) so reads see the transaction's consistent snapshot and
// writes buffer under its locks until the transaction commits.
//
// Reads take the *storage.Table returned by Table/ForWrite as a
// handle; the view decides which rows of it are visible. Writers must
// call ForWrite before InsertRows/ReplaceRows.
type TxnView interface {
	// Snapshot reads.
	Table(name string) (*storage.Table, bool)
	View(name string) (*storage.View, bool)
	Sequence(name string) (*storage.Sequence, bool)
	Rows(t *storage.Table) []schema.Row
	Len(t *storage.Table) int
	IndexOn(t *storage.Table, col int) *storage.Index
	Lookup(t *storage.Table, ix *storage.Index, key string) []schema.Row
	// CatalogVersion is the DDL generation the view's reads resolve
	// under — the invalidation key for plan caches. StatsEpoch is the
	// statistics generation for cost-based decisions.
	CatalogVersion() uint64
	StatsEpoch() uint64

	// Writes.
	ForWrite(ctx context.Context, name string) (t *storage.Table, ok bool, err error)
	InsertRows(t *storage.Table, rows []schema.Row) error
	ReplaceRows(t *storage.Table, rows []schema.Row) error

	// DDL. The context bounds lock waits where a lock is involved.
	CreateTable(ctx context.Context, name string, s *schema.Schema) (*storage.Table, error)
	DropTable(ctx context.Context, name string) error
	CreateView(name, text string) error
	DropView(name string) error
	CreateSequence(name string) (*storage.Sequence, error)
	DropSequence(name string) error
	CreateIndex(ctx context.Context, name, table string, col int) (*storage.Index, error)
	DropIndex(ctx context.Context, name string) error
}
