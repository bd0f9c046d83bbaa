package catalog

import (
	"fmt"
	"path/filepath"

	"repro/internal/storage"
)

// BindSummary reports what BindDir found on disk.
type BindSummary struct {
	Loaded int // tables whose rows came from disk
	Seeded int // tables that had rows in memory and an empty directory
	Rows   int // total rows loaded from disk
}

// BindDir binds every table in the catalog to a persistent DiskStore under
// dir (one subdirectory per table). Tables with data on disk are loaded
// from it — the on-disk rows REPLACE whatever the process generated, and
// the persisted data version carries over, so a restart serves the same
// data without regeneration. Tables with an empty directory keep their
// in-memory rows and are seeded into the store; the first Flush persists
// them. Statistics are refreshed for loaded tables.
func (c *Catalog) BindDir(dir string, buckets int) (BindSummary, error) {
	var sum BindSummary
	for _, name := range c.Names() {
		t := c.tables[name]
		st, err := storage.OpenDiskStore(filepath.Join(dir, name), name, len(t.ColNames), t.SortedBy)
		if err != nil {
			return sum, fmt.Errorf("catalog: bind %s: %w", name, err)
		}
		snap := st.Snapshot()
		if snap.N > 0 {
			// Disk wins: materialize the row-major mirror from the loaded
			// snapshot and adopt the persisted data version.
			rows := make([][]int64, snap.N)
			flat := make([]int64, snap.N*len(t.ColNames))
			for i := 0; i < snap.N; i++ {
				row := flat[i*len(t.ColNames) : (i+1)*len(t.ColNames) : (i+1)*len(t.ColNames)]
				for col := range t.ColNames {
					row[col] = snap.Cols[col][i]
				}
				rows[i] = row
			}
			t.mu.Lock()
			t.Rows = rows
			t.store = st
			t.mu.Unlock()
			t.SetDataVersion(st.LoadedVersion())
			t.Analyze(buckets)
			sum.Loaded++
			sum.Rows += snap.N
		} else {
			// Fresh directory: seed the store from the generated rows; the
			// next Flush writes them out as segments.
			t.mu.Lock()
			st.ResetRows(t.Rows)
			t.store = st
			t.mu.Unlock()
			sum.Seeded++
		}
	}
	return sum, nil
}

// FlushDir persists every table bound to a disk backend — unflushed
// appends and wholesale resets become immutable segments stamped with the
// table's current data version — then closes the stores. Call on graceful
// shutdown.
func (c *Catalog) FlushDir() error {
	var firstErr error
	for _, name := range c.Names() {
		t := c.tables[name]
		t.mu.Lock()
		st := t.store
		t.mu.Unlock()
		if st == nil || st.Kind() != "disk" {
			continue
		}
		if err := st.Flush(t.DataVersion()); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("catalog: flush %s: %w", name, err)
		}
		if err := st.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("catalog: close %s: %w", name, err)
		}
	}
	return firstErr
}
