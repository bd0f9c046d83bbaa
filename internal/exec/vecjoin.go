package exec

import (
	"errors"
	"fmt"
)

// The row-producing join operators share one output scheme: matches are
// collected as (build row, probe row) index pairs, residual predicates are
// evaluated directly on the pairs (reading only the referenced columns),
// and surviving pairs are stitched into the output batch with one Gather
// per column. Output columns live in a single flat buffer owned by the
// operator and recycled every batch.

// colEmitter is the reusable columnar output side of the join operators.
type colEmitter struct {
	batch Batch
}

func (e *colEmitter) init(width int) {
	flat := make([]int64, width*BatchSize)
	e.batch.Cols = make([][]int64, width)
	for c := range e.batch.Cols {
		e.batch.Cols[c] = flat[c*BatchSize : (c+1)*BatchSize : (c+1)*BatchSize]
	}
}

// emit gathers the paired rows (build ++ probe) into the output batch.
func (e *colEmitter) emit(build *colData, probeCols [][]int64, pb, pp []int32) *Batch {
	m := len(pb)
	bw := build.width()
	for c := 0; c < bw; c++ {
		Gather(e.batch.Cols[c][:m], build.cols[c], pb)
	}
	for c := bw; c < len(e.batch.Cols); c++ {
		Gather(e.batch.Cols[c][:m], probeCols[c-bw], pp)
	}
	e.batch.N = m
	e.batch.Sel = nil
	return &e.batch
}

// filterPairs compacts the pair vectors in place to the pairs whose
// concatenated (build ++ probe) row satisfies every residual predicate,
// reading only the referenced columns.
func filterPairs(preds []ColPred, build *colData, probeCols [][]int64, pb, pp []int32) ([]int32, []int32) {
	if len(preds) == 0 {
		return pb, pp
	}
	bw := build.width()
	k := 0
	for j := range pb {
		bi, pi := pb[j], pp[j]
		ok := true
		for _, p := range preds {
			var lv, rv int64
			if p.L < bw {
				lv = build.cols[p.L][bi]
			} else {
				lv = probeCols[p.L-bw][pi]
			}
			if p.R < bw {
				rv = build.cols[p.R][bi]
			} else {
				rv = probeCols[p.R-bw][pi]
			}
			if !p.Op.Eval(lv, rv+p.Off) {
				ok = false
				break
			}
		}
		if ok {
			pb[k], pp[k] = bi, pi
			k++
		}
	}
	return pb[:k], pp[:k]
}

// ---- vectorized hash join ----

type vecHashJoinOp struct {
	left, right  VecIterator
	lKeys, rKeys []int
	residual     []ColPred
	workers      int
	mem          *MemTracker // child tracker; nil = untracked

	table *joinTable
	spill *spillJoin // non-nil once the build overflowed its reservation

	// probe state, carried across Next calls
	pb      *Batch
	pi      int // cursor into the probe batch's live rows
	hs      []uint64
	curIdx  int
	curHash uint64
	chain   int32 // 1-based index into table rows, 0 = end of chain
	drained bool

	pairsB, pairsP []int32
	emit           colEmitter
}

// NewVecHashJoin is the vectorized counterpart of NewHashJoin: the build
// side (left) is drained column-major into a flat chained hash table at
// Open, the probe side (right) streams through batch-at-a-time. Probe-batch
// hashes are computed with one column pass per key; chain hits are
// prefiltered on the full hash before the key-equality check, collected as
// index pairs, residual-filtered, and gathered column-wise into the output.
// When workers > 1, the build side drains at worker parallelism where the
// source supports it and large tables are built with the partitioned
// parallel insert.
func NewVecHashJoin(left, right VecIterator, lKeys, rKeys []int, residual []ColPred, workers int) VecIterator {
	return &vecHashJoinOp{left: left, right: right, lKeys: lKeys, rKeys: rKeys,
		residual: residual, workers: workers}
}

func (j *vecHashJoinOp) Open() error {
	if err := j.right.Open(); err != nil {
		return err
	}
	if j.mem.Bounded() {
		if err := j.openBounded(); err != nil {
			// Release the already-opened probe side (which may have
			// launched parallel scan workers).
			return errors.Join(err, j.right.Close())
		}
	} else {
		build, err := drainVecCols(j.left)
		if err != nil {
			return errors.Join(err, j.right.Close())
		}
		j.mem.Force(colBytes(build.width(), build.n) + joinTableBytes(build.n))
		j.table = newJoinTable(build, j.lKeys, j.workers)
	}
	if j.pairsB == nil {
		j.pairsB = make([]int32, 0, BatchSize)
		j.pairsP = make([]int32, 0, BatchSize)
	}
	return nil
}

// openBounded drains the build side batch-at-a-time under the memory
// reservation (forgoing the parallel drainCols fast path — the price of a
// hard bound), switching to grace-hash spilling the moment a reservation
// fails. On the spill path openSpill takes over the open build input.
func (j *vecHashJoinOp) openBounded() error {
	if err := j.left.Open(); err != nil {
		return errors.Join(err, j.left.Close())
	}
	var (
		build   colData
		charged int64
	)
	for {
		b, err := j.left.Next()
		if err != nil {
			j.mem.Release(charged)
			return errors.Join(err, j.left.Close())
		}
		if b == nil {
			break
		}
		need := colBytes(b.Width(), b.Len())
		if !j.mem.Reserve(need) {
			return j.openSpill(build, b, charged)
		}
		charged += need
		build.appendBatch(b)
	}
	// Reserve the hash table before closing the build input: if even the
	// table does not fit, openSpill re-drains the (exhausted) input.
	if !j.mem.Reserve(joinTableBytes(build.n)) {
		return j.openSpill(build, nil, charged)
	}
	if err := j.left.Close(); err != nil {
		j.mem.ReleaseAll()
		return err
	}
	j.table = newJoinTable(build, j.lKeys, j.workers)
	return nil
}

// nextProbeBatch is the probe source indirection: the in-memory path streams
// the probe input directly, the spilled path streams partition runs.
func (j *vecHashJoinOp) nextProbeBatch() (*Batch, error) {
	if j.spill != nil {
		return j.spillNextBatch()
	}
	return j.right.Next()
}

// flushPairs residual-filters the pending pairs and stitches the survivors
// into an output batch, or returns nil when every pair was filtered out.
func (j *vecHashJoinOp) flushPairs() *Batch {
	pb, pp := filterPairs(j.residual, &j.table.data, j.pb.Cols, j.pairsB, j.pairsP)
	j.pairsB, j.pairsP = j.pairsB[:0], j.pairsP[:0]
	if len(pb) == 0 {
		return nil
	}
	if j.emit.batch.Cols == nil {
		j.emit.init(j.table.data.width() + j.pb.Width())
	}
	return j.emit.emit(&j.table.data, j.pb.Cols, pb, pp)
}

func (j *vecHashJoinOp) Next() (*Batch, error) {
	t := j.table
	for {
		for j.chain != 0 {
			i := j.chain - 1
			j.chain = t.next[i]
			if t.hashes[i] != j.curHash {
				continue
			}
			if !colKeysEqual(t.data.cols, j.lKeys, int(i), j.pb.Cols, j.rKeys, j.curIdx) {
				continue
			}
			j.pairsB = append(j.pairsB, i)
			j.pairsP = append(j.pairsP, int32(j.curIdx))
			if len(j.pairsB) == BatchSize {
				if out := j.flushPairs(); out != nil {
					return out, nil
				}
			}
		}
		// advance to the next probe row
		if j.pb != nil && j.pi < j.pb.Len() {
			j.curIdx = j.pi
			if j.pb.Sel != nil {
				j.curIdx = j.pb.Sel[j.pi]
			}
			j.curHash = j.hs[j.pi]
			j.pi++
			j.chain = t.head[j.curHash&t.mask]
			continue
		}
		// Pairs index into the current probe batch's columns, so they must
		// be stitched out before the batch is released or replaced.
		if len(j.pairsB) > 0 {
			if out := j.flushPairs(); out != nil {
				return out, nil
			}
		}
		if j.drained {
			return nil, nil
		}
		b, err := j.nextProbeBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			j.drained = true
			// The producer may recycle its last batch when it reports end
			// of stream (the parallel scan clears Sel, changing Len), so
			// drop the stale reference before re-checking the cursor.
			j.pb = nil
			continue
		}
		j.pb, j.pi = b, 0
		j.hs = hashLive(j.hs, b.Cols, j.rKeys, b.N, b.Sel)
		// The spilled path installs a fresh table per partition; pairs are
		// always flushed before a new probe batch, so the swap is safe here.
		t = j.table
	}
}

func (j *vecHashJoinOp) Close() error {
	j.table = nil
	j.spill.closeAll()
	j.spill = nil
	j.mem.ReleaseAll()
	return j.right.Close()
}

// ---- vectorized merge join ----

type vecMergeJoinOp struct {
	left, right VecIterator
	lKey, rKey  int
	residual    []ColPred
	mem         *MemTracker // child tracker; Force-only (no spill fallback)

	lData, rData colData
	li, ri       int
	gls, gle     int // current left key group [gls, gle)
	grs, gre     int
	gi, gj       int

	pairsB, pairsP []int32
	emit           colEmitter
}

// NewVecMergeJoin joins two inputs already sorted on their key columns,
// batch-at-a-time over column-major materializations.
func NewVecMergeJoin(left, right VecIterator, lKey, rKey int, residual []ColPred) VecIterator {
	return &vecMergeJoinOp{left: left, right: right, lKey: lKey, rKey: rKey, residual: residual}
}

func (m *vecMergeJoinOp) Open() error {
	var err error
	if m.lData, err = drainVecCols(m.left); err != nil {
		return err
	}
	if m.rData, err = drainVecCols(m.right); err != nil {
		return err
	}
	m.mem.Force(colBytes(m.lData.width(), m.lData.n) + colBytes(m.rData.width(), m.rData.n))
	// Defensive sortedness check (the optimizer guarantees order via
	// properties; a violation is a planning bug worth surfacing): a single
	// pass over one contiguous key column per side.
	if m.lData.n > 0 {
		key := m.lData.cols[m.lKey]
		for i := 1; i < len(key); i++ {
			if key[i-1] > key[i] {
				return fmt.Errorf("exec: merge join left input not sorted on col %d", m.lKey)
			}
		}
	}
	if m.rData.n > 0 {
		key := m.rData.cols[m.rKey]
		for i := 1; i < len(key); i++ {
			if key[i-1] > key[i] {
				return fmt.Errorf("exec: merge join right input not sorted on col %d", m.rKey)
			}
		}
	}
	m.pairsB = make([]int32, 0, BatchSize)
	m.pairsP = make([]int32, 0, BatchSize)
	return nil
}

func (m *vecMergeJoinOp) flushPairs() *Batch {
	pb, pp := filterPairs(m.residual, &m.lData, m.rData.cols, m.pairsB, m.pairsP)
	m.pairsB, m.pairsP = m.pairsB[:0], m.pairsP[:0]
	if len(pb) == 0 {
		return nil
	}
	if m.emit.batch.Cols == nil {
		m.emit.init(m.lData.width() + m.rData.width())
	}
	return m.emit.emit(&m.lData, m.rData.cols, pb, pp)
}

func (m *vecMergeJoinOp) Next() (*Batch, error) {
	for {
		for m.gi < m.gle-m.gls {
			for m.gj < m.gre-m.grs {
				m.pairsB = append(m.pairsB, int32(m.gls+m.gi))
				m.pairsP = append(m.pairsP, int32(m.grs+m.gj))
				m.gj++
				if len(m.pairsB) == BatchSize {
					if out := m.flushPairs(); out != nil {
						return out, nil
					}
				}
			}
			m.gj = 0
			m.gi++
		}
		// advance to the next matching key group
		if m.li >= m.lData.n || m.ri >= m.rData.n {
			if len(m.pairsB) > 0 {
				if out := m.flushPairs(); out != nil {
					return out, nil
				}
			}
			return nil, nil
		}
		lCol, rCol := m.lData.cols[m.lKey], m.rData.cols[m.rKey]
		lk, rk := lCol[m.li], rCol[m.ri]
		switch {
		case lk < rk:
			m.li++
		case lk > rk:
			m.ri++
		default:
			ls, rs := m.li, m.ri
			for m.li < m.lData.n && lCol[m.li] == lk {
				m.li++
			}
			for m.ri < m.rData.n && rCol[m.ri] == rk {
				m.ri++
			}
			m.gls, m.gle, m.grs, m.gre = ls, m.li, rs, m.ri
			m.gi, m.gj = 0, 0
		}
	}
}

func (m *vecMergeJoinOp) Close() error {
	m.lData, m.rData = colData{}, colData{}
	m.mem.ReleaseAll()
	return nil
}

// ---- vectorized index nested-loops join ----

// colIndex is a hash index over one column of a column-major base table:
// value -> row indices into data.
type colIndex struct {
	data colData
	m    map[int64][]int32
}

// buildColIndex constructs an index on column col of a column-major table;
// filter applies the pushed-down local selections of the inner relation.
func buildColIndex(data colData, col int, filter ScanFilter) *colIndex {
	ix := &colIndex{data: data, m: map[int64][]int32{}}
	key := data.cols[col]
	if filter.Empty() {
		for i := 0; i < data.n; i++ {
			ix.m[key[i]] = append(ix.m[key[i]], int32(i))
		}
		return ix
	}
	sel := filter.SelCols(data.cols, data.n, make([]int, 0, data.n))
	for _, i := range sel {
		ix.m[key[i]] = append(ix.m[key[i]], int32(i))
	}
	return ix
}

type vecIndexNLOp struct {
	outer    VecIterator // the plan's RIGHT child
	index    *colIndex   // inner: the plan's LEFT child
	outerKey int
	residual []ColPred

	ob      *Batch
	oi      int
	matches []int32
	mi      int
	curIdx  int
	drained bool

	pairsB, pairsP []int32
	emit           colEmitter
}

// NewVecIndexNLJoin probes a prebuilt inner index with each outer row,
// batch-at-a-time. The output row is inner ++ outer, matching the plan
// convention that the indexed inner is the left child.
func NewVecIndexNLJoin(outer VecIterator, index *colIndex, outerKey int, residual []ColPred) VecIterator {
	return &vecIndexNLOp{outer: outer, index: index, outerKey: outerKey, residual: residual}
}

func (j *vecIndexNLOp) Open() error {
	j.pairsB = make([]int32, 0, BatchSize)
	j.pairsP = make([]int32, 0, BatchSize)
	return j.outer.Open()
}

func (j *vecIndexNLOp) flushPairs() *Batch {
	pb, pp := filterPairs(j.residual, &j.index.data, j.ob.Cols, j.pairsB, j.pairsP)
	j.pairsB, j.pairsP = j.pairsB[:0], j.pairsP[:0]
	if len(pb) == 0 {
		return nil
	}
	if j.emit.batch.Cols == nil {
		j.emit.init(j.index.data.width() + j.ob.Width())
	}
	return j.emit.emit(&j.index.data, j.ob.Cols, pb, pp)
}

func (j *vecIndexNLOp) Next() (*Batch, error) {
	for {
		for j.mi < len(j.matches) {
			j.pairsB = append(j.pairsB, j.matches[j.mi])
			j.pairsP = append(j.pairsP, int32(j.curIdx))
			j.mi++
			if len(j.pairsB) == BatchSize {
				if out := j.flushPairs(); out != nil {
					return out, nil
				}
			}
		}
		if j.ob != nil && j.oi < j.ob.Len() {
			j.curIdx = j.oi
			if j.ob.Sel != nil {
				j.curIdx = j.ob.Sel[j.oi]
			}
			j.oi++
			j.matches = j.index.m[j.ob.Cols[j.outerKey][j.curIdx]]
			j.mi = 0
			continue
		}
		// Flush before the outer batch is replaced — pairs index into it.
		if len(j.pairsB) > 0 {
			if out := j.flushPairs(); out != nil {
				return out, nil
			}
		}
		if j.drained {
			return nil, nil
		}
		b, err := j.outer.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			j.drained = true
			// Same stale-batch hazard as the hash join: the producer may
			// recycle its last batch at end of stream.
			j.ob = nil
			continue
		}
		j.ob, j.oi = b, 0
	}
}

func (j *vecIndexNLOp) Close() error { return j.outer.Close() }
