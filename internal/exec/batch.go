package exec

import "errors"

// BatchSize is the fixed batch capacity of the vectorized executor. Batches
// are column-major: up to BatchSize rows held as one contiguous []int64 per
// column, plus an optional selection vector, so leaf scans hand out
// zero-copy column windows over the base table and predicate/join/agg
// kernels run tight loops over contiguous typed slices.
const BatchSize = 1024

// Batch is one unit of vectorized data flow, laid out column-major:
// Cols[c][i] is column c of row i, 0 <= i < N. Sel, when non-nil, lists the
// live row indices in ascending order; nil means all N rows are live.
//
// Ownership contract (columnar): the column slices reachable through Cols
// either alias immutable base-table storage (zero-copy scan windows) or are
// output buffers owned by the producing operator. The Batch struct, its
// Cols headers, the column buffers of produced batches, and the Sel vector
// are ALL recycled by the producer as soon as the consumer asks for the
// next batch. Consumers must therefore copy values out (not retain Cols or
// Sel) before calling Next again; DrainVec and the materializing drains do
// exactly one such copy per row.
type Batch struct {
	Cols [][]int64
	N    int
	Sel  []int
}

// Len returns the number of live rows.
func (b *Batch) Len() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.N
}

// Width returns the number of columns.
func (b *Batch) Width() int { return len(b.Cols) }

// VecIterator is the batch-at-a-time (vectorized Volcano) operator
// interface. Next returns nil at end of stream.
type VecIterator interface {
	// Open prepares the operator (builds hash tables, sorts inputs,
	// launches scan workers).
	Open() error
	// Next returns the next batch, or nil at end of stream.
	Next() (*Batch, error)
	// Close releases operator state.
	Close() error
}

// DrainVec runs a vectorized iterator to completion and returns all rows.
// Each batch's live rows are copied out of the (recycled) columnar batch
// exactly once, into one backing allocation per batch; the returned rows
// are never reused and may be retained indefinitely.
func DrainVec(v VecIterator) ([]Row, error) {
	if err := v.Open(); err != nil {
		return nil, errors.Join(err, v.Close())
	}
	var out []Row
	for {
		b, err := v.Next()
		if err != nil {
			return nil, errors.Join(err, v.Close())
		}
		if b == nil {
			break
		}
		n, w := b.Len(), b.Width()
		if n == 0 {
			continue
		}
		buf := make([]int64, n*w)
		if b.Sel == nil {
			for c, col := range b.Cols {
				for i := 0; i < n; i++ {
					buf[i*w+c] = col[i]
				}
			}
		} else {
			for c, col := range b.Cols {
				for k, i := range b.Sel {
					buf[k*w+c] = col[i]
				}
			}
		}
		for i := 0; i < n; i++ {
			out = append(out, Row(buf[i*w:(i+1)*w:(i+1)*w]))
		}
	}
	return out, v.Close()
}

// CountVec runs a vectorized iterator to completion and returns the row
// count without retaining rows.
func CountVec(v VecIterator) (int64, error) {
	if err := v.Open(); err != nil {
		return 0, errors.Join(err, v.Close())
	}
	var n int64
	for {
		b, err := v.Next()
		if err != nil {
			return n, errors.Join(err, v.Close())
		}
		if b == nil {
			break
		}
		n += int64(b.Len())
	}
	return n, v.Close()
}

// ---- materialized columnar data ----

// colData is a materialized column-major row set: cols[c][i] is column c of
// row i, 0 <= i < n. It is the unit of blocking materialization (join build
// sides, sort runs, pipeline outputs) and of base-table storage handed out
// by the catalog.
type colData struct {
	cols [][]int64
	n    int
}

func newColData(width, capHint int) colData {
	cols := make([][]int64, width)
	for c := range cols {
		cols[c] = make([]int64, 0, capHint)
	}
	return colData{cols: cols}
}

func (d *colData) width() int { return len(d.cols) }

// window returns the zero-copy column windows of rows [lo, hi) into dst
// (reused across calls).
func (d *colData) window(dst [][]int64, lo, hi int) [][]int64 {
	dst = dst[:0]
	for _, col := range d.cols {
		dst = append(dst, col[lo:hi])
	}
	return dst
}

// appendBatch copies a batch's live rows onto the end of d, initializing
// the column set from the first batch.
func (d *colData) appendBatch(b *Batch) {
	if d.cols == nil {
		d.cols = make([][]int64, b.Width())
	}
	if b.Sel == nil {
		for c := range d.cols {
			d.cols[c] = append(d.cols[c], b.Cols[c][:b.N]...)
		}
	} else {
		for c := range d.cols {
			col, dst := b.Cols[c], d.cols[c]
			for _, i := range b.Sel {
				dst = append(dst, col[i])
			}
			d.cols[c] = dst
		}
	}
	d.n += b.Len()
}

// appendSel copies the selected rows of a column window set onto d.
func (d *colData) appendSel(cols [][]int64, n int, sel []int) {
	if d.cols == nil {
		d.cols = make([][]int64, len(cols))
	}
	if sel == nil {
		for c := range d.cols {
			d.cols[c] = append(d.cols[c], cols[c][:n]...)
		}
		d.n += n
		return
	}
	for c := range d.cols {
		col, dst := cols[c], d.cols[c]
		for _, i := range sel {
			dst = append(dst, col[i])
		}
		d.cols[c] = dst
	}
	d.n += len(sel)
}

// appendFrom concatenates another colData (the per-worker merge).
func (d *colData) appendFrom(o colData) {
	if d.cols == nil {
		d.cols = make([][]int64, o.width())
	}
	for c := range d.cols {
		d.cols[c] = append(d.cols[c], o.cols[c]...)
	}
	d.n += o.n
}

// transposeRows converts row-major data (the Compiler.Data override path
// and test helpers) into columnar form.
func transposeRows(rows [][]int64, arity int) colData {
	d := newColData(arity, len(rows))
	for _, r := range rows {
		for c := range d.cols {
			d.cols[c] = append(d.cols[c], r[c])
		}
	}
	d.n = len(rows)
	return d
}

// colDrainer is implemented by operators that can materialize their entire
// output as colData without going through the batch stream. drainVecCols
// uses it as a fast path, so blocking consumers (hash-join build, merge
// join, sort) drain parallel scans and fused pipelines at full worker
// parallelism instead of serializing every batch through one consumer.
type colDrainer interface {
	drainCols() (colData, error)
}

// drainVecCols opens in, materializes every live row column-wise and closes
// it — the materializing primitive shared by sort, merge join, hash join
// builds and the pipeline's build sides.
func drainVecCols(in VecIterator) (colData, error) {
	if d, ok := in.(colDrainer); ok {
		return d.drainCols()
	}
	var out colData
	if err := in.Open(); err != nil {
		return out, errors.Join(err, in.Close())
	}
	for {
		b, err := in.Next()
		if err != nil {
			return out, errors.Join(err, in.Close())
		}
		if b == nil {
			break
		}
		out.appendBatch(b)
	}
	return out, in.Close()
}

// ---- vectorized scan ----

type vecScanOp struct {
	data   colData
	filter ScanFilter
	pos    int
	batch  Batch
	sel    []int
}

// NewVecScan returns a serial vectorized filtering scan over column-major
// data (cols[c] must all have length n): each batch is a set of zero-copy
// column windows with a selection vector for the surviving rows. Structured
// conditions in the filter are evaluated with typed columnar kernels (one
// operator dispatch per batch over contiguous slices).
func NewVecScan(cols [][]int64, n int, filter ScanFilter) VecIterator {
	return &vecScanOp{data: colData{cols: cols, n: n}, filter: filter}
}

// NewVecScanRows is NewVecScan over row-major input, transposed once at
// construction — the Data-override and test-convenience path.
func NewVecScanRows(rows [][]int64, filter ScanFilter) VecIterator {
	var arity int
	if len(rows) > 0 {
		arity = len(rows[0])
	}
	d := transposeRows(rows, arity)
	return &vecScanOp{data: d, filter: filter}
}

func (s *vecScanOp) Open() error { s.pos = 0; return nil }

func (s *vecScanOp) Next() (*Batch, error) {
	for s.pos < s.data.n {
		end := s.pos + BatchSize
		if end > s.data.n {
			end = s.data.n
		}
		lo := s.pos
		s.pos = end
		s.batch.Cols = s.data.window(s.batch.Cols, lo, end)
		s.batch.N = end - lo
		if s.filter.Empty() {
			s.batch.Sel = nil
			return &s.batch, nil
		}
		if s.sel == nil {
			s.sel = make([]int, 0, BatchSize)
		}
		s.sel = s.filter.SelCols(s.batch.Cols, s.batch.N, s.sel)
		if len(s.sel) == 0 {
			continue
		}
		s.batch.Sel = s.sel
		return &s.batch, nil
	}
	return nil, nil
}

func (s *vecScanOp) Close() error { return nil }

// ---- vectorized projection ----

type vecProjectOp struct {
	in    VecIterator
	cols  []int
	batch Batch
}

// NewVecProject returns vectorized column projection — with a columnar
// layout this is pure column-header shuffling, zero copies.
func NewVecProject(in VecIterator, cols []int) VecIterator {
	return &vecProjectOp{in: in, cols: cols}
}

func (p *vecProjectOp) Open() error { return p.in.Open() }

func (p *vecProjectOp) Next() (*Batch, error) {
	b, err := p.in.Next()
	if err != nil || b == nil {
		return nil, err
	}
	out := p.batch.Cols[:0]
	for _, c := range p.cols {
		out = append(out, b.Cols[c])
	}
	p.batch.Cols = out
	p.batch.N = b.N
	p.batch.Sel = b.Sel
	return &p.batch, nil
}

func (p *vecProjectOp) Close() error { return p.in.Close() }

// ---- vectorized sort ----

type vecSortOp struct {
	in    VecIterator
	col   int
	mem   *MemTracker // child tracker; Force-only (no external sort)
	data  colData
	pos   int
	batch Batch
}

// NewVecSort materializes and sorts its input by the given column, emitting
// dense zero-copy column windows of the sorted run. Sorting permutes a row
// index vector, then gathers each column once.
func NewVecSort(in VecIterator, col int) VecIterator { return &vecSortOp{in: in, col: col} }

func (s *vecSortOp) Open() error {
	data, err := drainVecCols(s.in)
	if err != nil {
		return err
	}
	// sortColsStable gathers into a second allocation; both copies are live
	// during the sort, then the input is dropped.
	in := colBytes(data.width(), data.n)
	s.mem.Force(2 * in)
	s.data = sortColsStable(data, s.col)
	s.mem.Release(in)
	s.pos = 0
	return nil
}

func (s *vecSortOp) Next() (*Batch, error) {
	if s.pos >= s.data.n {
		return nil, nil
	}
	end := s.pos + BatchSize
	if end > s.data.n {
		end = s.data.n
	}
	s.batch.Cols = s.data.window(s.batch.Cols, s.pos, end)
	s.batch.N = end - s.pos
	s.batch.Sel = nil
	s.pos = end
	return &s.batch, nil
}

func (s *vecSortOp) Close() error {
	s.data = colData{}
	s.mem.ReleaseAll()
	return nil
}

// ---- vectorized cardinality counter ----

type vecCounterOp struct {
	in VecIterator
	n  *int64
}

// NewVecCounter wraps a vectorized iterator and accumulates its output
// cardinality into n. The counter sits above any exchange, so counts stay
// exact (and race-free) under morsel-driven parallel scans.
func NewVecCounter(in VecIterator, n *int64) VecIterator { return &vecCounterOp{in: in, n: n} }

func (c *vecCounterOp) Open() error { return c.in.Open() }

func (c *vecCounterOp) Next() (*Batch, error) {
	b, err := c.in.Next()
	if b != nil {
		*c.n += int64(b.Len())
	}
	return b, err
}

func (c *vecCounterOp) Close() error { return c.in.Close() }

// drainCols forwards the parallel drain fast path through the counter,
// keeping the counted cardinality exact: the materialized row count is by
// definition the operator's output cardinality.
func (c *vecCounterOp) drainCols() (colData, error) {
	d, err := drainVecCols(c.in)
	*c.n += int64(d.n)
	return d, err
}
