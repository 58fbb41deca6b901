package engine

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"path/filepath"

	"minerule/internal/sql/value"
	"minerule/internal/sql/vfs"
)

// The on-disk format is one directory: manifest.json plus one CSV per
// table (typed headers, the ImportCSV format). It is deliberately plain:
// durability is the WAL-backed store's job (Open, DESIGN.md §12), and
// save/load writes a portable copy of a database, not a transactional
// store.

// manifest describes a saved database.
type manifest struct {
	Tables    []string         `json:"tables"`
	Views     []manifestView   `json:"views"`
	Sequences map[string]int64 `json:"sequences"`
	Indexes   []manifestIndex  `json:"indexes,omitempty"`
}

type manifestIndex struct {
	Name   string `json:"name"`
	Table  string `json:"table"`
	Column string `json:"column"`
}

type manifestView struct {
	Name string `json:"name"`
	Text string `json:"text"`
}

// Save writes the whole database under dir (created if needed).
func (db *Database) Save(dir string) error {
	if err := vfs.OS.MkdirAll(dir); err != nil {
		return fmt.Errorf("engine: save: %w", err)
	}
	m := manifest{Sequences: make(map[string]int64)}
	m.Tables = db.cat.TableNames()
	for _, name := range m.Tables {
		if err := db.saveTable(dir, name); err != nil {
			return err
		}
		t, _ := db.cat.Table(name)
		for _, ix := range t.Indexes() {
			m.Indexes = append(m.Indexes, manifestIndex{
				Name:   ix.Name(),
				Table:  name,
				Column: t.Schema().Col(ix.Column()).Name,
			})
		}
	}
	for _, vn := range db.cat.ViewNames() {
		v, _ := db.cat.View(vn)
		m.Views = append(m.Views, manifestView{Name: v.Name, Text: v.Text})
	}
	for _, sn := range db.cat.SequenceNames() {
		s, _ := db.cat.Sequence(sn)
		m.Sequences[s.Name()] = s.CurrentVal()
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("engine: save: %w", err)
	}
	f, err := vfs.OS.Create(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return fmt.Errorf("engine: save: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("engine: save: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("engine: save: %w", err)
	}
	return nil
}

func (db *Database) saveTable(dir, name string) error {
	t, ok := db.cat.Table(name)
	if !ok {
		return fmt.Errorf("engine: save: table %q vanished", name)
	}
	f, err := vfs.OS.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return fmt.Errorf("engine: save: %w", err)
	}
	defer f.Close()
	w := csv.NewWriter(f)
	s := t.Schema()
	header := make([]string, s.Len())
	for i := 0; i < s.Len(); i++ {
		header[i] = s.Col(i).Name + ":" + csvTypeName(s.Col(i).Type)
	}
	if err := w.Write(header); err != nil {
		return err
	}
	rec := make([]string, s.Len())
	for _, row := range t.Snapshot() {
		for i, v := range row {
			if v.IsNull() {
				rec[i] = ""
			} else {
				rec[i] = v.String()
			}
		}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return err
	}
	return f.Close()
}

func csvTypeName(t value.Type) string {
	switch t {
	case value.TypeInt:
		return "int"
	case value.TypeFloat:
		return "float"
	case value.TypeDate:
		return "date"
	case value.TypeBool:
		return "bool"
	default:
		return "string"
	}
}

// Load reads a database saved by Save into a fresh Database.
func Load(dir string) (*Database, error) {
	return LoadContext(context.Background(), dir)
}

// LoadContext is Load under a cancellation context.
func LoadContext(ctx context.Context, dir string) (*Database, error) {
	data, err := vfs.OS.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, fmt.Errorf("engine: load: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("engine: load: bad manifest: %w", err)
	}
	db := New()
	for _, name := range m.Tables {
		f, err := vfs.OS.Open(filepath.Join(dir, name+".csv"))
		if err != nil {
			return nil, fmt.Errorf("engine: load: %w", err)
		}
		r := csv.NewReader(f)
		header, err := r.Read()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("engine: load %s: %w", name, err)
		}
		// Re-feed the remaining records through ImportCSV's machinery by
		// handing it the already-opened reader.
		if _, err := db.importRecords(ctx, name, header, r); err != nil {
			f.Close()
			return nil, fmt.Errorf("engine: load %s: %w", name, err)
		}
		f.Close()
	}
	// Views may reference each other; create in passes until a fixpoint,
	// which handles any dependency order without tracking it.
	pending := append([]manifestView(nil), m.Views...)
	for len(pending) > 0 {
		progressed := false
		var next []manifestView
		var lastErr error
		for _, v := range pending {
			if _, err := db.Exec("CREATE VIEW " + v.Name + " AS " + v.Text); err != nil {
				lastErr = err
				next = append(next, v)
				continue
			}
			progressed = true
		}
		if !progressed {
			return nil, fmt.Errorf("engine: load: cannot restore views: %w", lastErr)
		}
		pending = next
	}
	for name, nextVal := range m.Sequences {
		s, err := db.cat.CreateSequence(name)
		if err != nil {
			return nil, fmt.Errorf("engine: load: %w", err)
		}
		s.Restore(nextVal)
	}
	for _, ix := range m.Indexes {
		if _, err := db.Exec(fmt.Sprintf("CREATE INDEX %s ON %s (%s)", ix.Name, ix.Table, ix.Column)); err != nil {
			return nil, fmt.Errorf("engine: load: %w", err)
		}
	}
	return db, nil
}
