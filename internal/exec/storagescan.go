package exec

import (
	"repro/internal/relalg"
	"repro/internal/storage"
)

// storageScanOp is the vectorized leaf behind PhySegScan: it pulls
// zero-copy column windows from a storage backend's segment iterator, which
// skips whole segments whose zone maps prove the pushed-down predicates
// unsatisfiable. The surviving windows still pass through the same
// ScanFilter kernels as a plain table scan — pruning only removes rows the
// filter would reject anyway, so the result multiset is identical.
type storageScanOp struct {
	store  storage.Backend
	preds  []storage.Pred
	cols   []relalg.ColID // scan view: table columns read, in view order
	out    int            // leading view columns emitted
	filter ScanFilter
	it     *storage.SegIter
	batch  Batch
	sel    []int
	pruned int64
}

// newStorageScan builds the leaf over a scan view: cols names the table
// columns read (filter.Conds index into them) and the first out are
// emitted. The pushed preds mirror filter.Conds so pruning and filtering
// agree on the predicate set.
func newStorageScan(store storage.Backend, cols []relalg.ColID, out int, filter ScanFilter) *storageScanOp {
	return &storageScanOp{store: store, preds: storagePreds(filter.Conds, cols),
		cols: cols, out: out, filter: filter}
}

func (s *storageScanOp) Open() error {
	// The iterator pins one storage snapshot for the whole scan; appends
	// that land mid-query publish new snapshots and never disturb this one.
	s.it = s.store.Scan(s.preds, BatchSize)
	s.pruned = int64(s.it.PrunedRows())
	return nil
}

func (s *storageScanOp) Next() (*Batch, error) {
	for {
		cols, n, ok := s.it.Next()
		if !ok {
			return nil, nil
		}
		s.batch.Cols = s.batch.Cols[:0]
		for _, c := range s.cols {
			s.batch.Cols = append(s.batch.Cols, cols[c.Off])
		}
		s.batch.N = n
		s.batch.Sel = nil
		if !s.filter.Empty() {
			s.sel = s.filter.SelCols(s.batch.Cols, s.batch.N, s.sel)
			if len(s.sel) == 0 {
				continue
			}
			s.batch.Sel = s.sel
		}
		s.batch.Cols = s.batch.Cols[:s.out]
		return &s.batch, nil
	}
}

func (s *storageScanOp) Close() error {
	if s.it != nil {
		s.it.Release()
		s.it = nil
	}
	return nil
}

// storagePreds translates the compiled scan conditions, whose offsets index
// the scan view cols, into storage-layer pushdown predicates on table
// columns. The operator mapping is explicit so a reordering of either enum
// cannot silently flip comparison semantics.
func storagePreds(conds []ScanCond, cols []relalg.ColID) []storage.Pred {
	if len(conds) == 0 {
		return nil
	}
	out := make([]storage.Pred, 0, len(conds))
	for _, cn := range conds {
		var op storage.CmpOp
		switch cn.Op {
		case relalg.CmpEQ:
			op = storage.CmpEQ
		case relalg.CmpNE:
			op = storage.CmpNE
		case relalg.CmpLT:
			op = storage.CmpLT
		case relalg.CmpLE:
			op = storage.CmpLE
		case relalg.CmpGT:
			op = storage.CmpGT
		case relalg.CmpGE:
			op = storage.CmpGE
		default:
			continue // unknown operator: not pushed, still filtered
		}
		out = append(out, storage.Pred{Col: cols[cn.Off].Off, Op: op, Val: cn.Val})
	}
	return out
}
