package exec

import (
	"errors"
	"sort"
)

// AggSpecExec describes a hash aggregation over the join output.
type AggSpecExec struct {
	GroupBy       []int // column offsets in the input row
	Sums          []int
	CountAll      bool
	CountDistinct []int
}

// aggTable is the grouping core shared by the serial, spilling and parallel
// hash aggregation operators: an open-addressing table of 1-based
// group ids hashed directly on the int64 group-key columns, with all group
// state (keys, sums, counts) in flat arrays. Adding a row allocates nothing
// beyond amortized slice growth — no per-row key string, no per-group
// state struct — which is what keeps the aggregation hot path off the
// allocator at any parallelism.
type aggTable struct {
	spec AggSpecExec
	gw   int // group-key width
	sw   int // sum width
	dw   int // count-distinct width

	mask   uint64
	slots  []int32 // open addressing: 0 = empty, else 1-based group id
	hashes []uint64
	keys   []int64 // group g's key columns at [g*gw, (g+1)*gw)
	sums   []int64 // group g's sums at [g*sw, (g+1)*sw)
	counts []int64
	idCols []int // 0..gw-1, for inserting already-extracted flat keys
	// distinct value sets per (group, CountDistinct column); the only
	// per-group allocation left, and only for COUNT(DISTINCT) queries.
	distinct []map[int64]struct{}
	n        int
}

const aggInitSlots = 256 // power of two

func newAggTable(spec AggSpecExec) *aggTable {
	t := &aggTable{
		spec:  spec,
		gw:    len(spec.GroupBy),
		sw:    len(spec.Sums),
		dw:    len(spec.CountDistinct),
		mask:  aggInitSlots - 1,
		slots: make([]int32, aggInitSlots),
	}
	t.idCols = make([]int, t.gw)
	for i := range t.idCols {
		t.idCols[i] = i
	}
	return t
}

// aggScratch is the reusable per-consumer scratch of the columnar
// aggregation path: the batch hash vector and the resolved group id per
// live row. One instance per serial consumer or pipeline worker.
type aggScratch struct {
	hashes []uint64
	gids   []int32
}

// addBatch folds a column-major chunk (cols[c] holding rows 0..n-1, live
// rows given by sel) into the table: group-key hashes are computed with one
// column pass per key (hashLive, the one hash every table uses, so
// mergeFrom can reuse stored hashes), group ids are resolved once per row,
// and each accumulator column is then updated in its own tight loop over
// the chunk — column locality on both the input and the flat sums array.
func (t *aggTable) addBatch(cols [][]int64, n int, sel []int, s *aggScratch) {
	s.hashes = hashLive(s.hashes, cols, t.spec.GroupBy, n, sel)
	m := len(s.hashes)
	if cap(s.gids) < m {
		s.gids = make([]int32, m)
	}
	s.gids = s.gids[:m]
	t.resolveGids(cols, n, sel, s)
	for si, c := range t.spec.Sums {
		col, sums, sw := cols[c], t.sums, t.sw
		if sel == nil {
			for i := 0; i < n; i++ {
				sums[int(s.gids[i])*sw+si] += col[i]
			}
		} else {
			for k, i := range sel {
				sums[int(s.gids[k])*sw+si] += col[i]
			}
		}
	}
	for di, c := range t.spec.CountDistinct {
		col := cols[c]
		if sel == nil {
			for i := 0; i < n; i++ {
				t.distinct[int(s.gids[i])*t.dw+di][col[i]] = struct{}{}
			}
		} else {
			for k, i := range sel {
				t.distinct[int(s.gids[k])*t.dw+di][col[i]] = struct{}{}
			}
		}
	}
}

// resolveGids fills s.gids[k] with the group id of the k-th live row,
// creating groups as needed, and bumps each group's COUNT(*) in the same
// pass. The overwhelmingly common case — the group already exists and sits
// in its home slot — is handled inline, with the key comparison specialized
// for one- and two-column group keys so the hit path is pure slice reads;
// home-slot misses fall into findOrCreateCols' full open-addressing probe.
// Table fields (slots, hashes, keys, counts, mask) are reloaded every row
// because a miss can grow the table mid-batch.
func (t *aggTable) resolveGids(cols [][]int64, n int, sel []int, s *aggScratch) {
	switch len(t.spec.GroupBy) {
	case 1:
		c0 := cols[t.spec.GroupBy[0]]
		if sel == nil {
			for i := 0; i < n; i++ {
				h := s.hashes[i]
				g := -1
				if gi := t.slots[h&t.mask]; gi > 0 {
					if cand := int(gi - 1); t.hashes[cand] == h && t.keys[cand] == c0[i] {
						g = cand
					}
				}
				if g < 0 {
					g = t.findOrCreateCols(h, cols, i)
				}
				s.gids[i] = int32(g)
				t.counts[g]++
			}
		} else {
			for k, i := range sel {
				h := s.hashes[k]
				g := -1
				if gi := t.slots[h&t.mask]; gi > 0 {
					if cand := int(gi - 1); t.hashes[cand] == h && t.keys[cand] == c0[i] {
						g = cand
					}
				}
				if g < 0 {
					g = t.findOrCreateCols(h, cols, i)
				}
				s.gids[k] = int32(g)
				t.counts[g]++
			}
		}
	case 2:
		c0, c1 := cols[t.spec.GroupBy[0]], cols[t.spec.GroupBy[1]]
		if sel == nil {
			for i := 0; i < n; i++ {
				h := s.hashes[i]
				g := -1
				if gi := t.slots[h&t.mask]; gi > 0 {
					if cand := int(gi - 1); t.hashes[cand] == h &&
						t.keys[cand*2] == c0[i] && t.keys[cand*2+1] == c1[i] {
						g = cand
					}
				}
				if g < 0 {
					g = t.findOrCreateCols(h, cols, i)
				}
				s.gids[i] = int32(g)
				t.counts[g]++
			}
		} else {
			for k, i := range sel {
				h := s.hashes[k]
				g := -1
				if gi := t.slots[h&t.mask]; gi > 0 {
					if cand := int(gi - 1); t.hashes[cand] == h &&
						t.keys[cand*2] == c0[i] && t.keys[cand*2+1] == c1[i] {
						g = cand
					}
				}
				if g < 0 {
					g = t.findOrCreateCols(h, cols, i)
				}
				s.gids[k] = int32(g)
				t.counts[g]++
			}
		}
	default:
		if sel == nil {
			for i := 0; i < n; i++ {
				g := t.findOrCreateCols(s.hashes[i], cols, i)
				s.gids[i] = int32(g)
				t.counts[g]++
			}
		} else {
			for k, i := range sel {
				g := t.findOrCreateCols(s.hashes[k], cols, i)
				s.gids[k] = int32(g)
				t.counts[g]++
			}
		}
	}
}

// findOrCreateCols returns the group id of row i of a column-major chunk,
// creating the group if absent. h must be the hash of row i's group-key
// columns.
func (t *aggTable) findOrCreateCols(h uint64, cols [][]int64, i int) int {
	for s := h & t.mask; ; s = (s + 1) & t.mask {
		gi := t.slots[s]
		if gi == 0 {
			g := t.n
			t.n++
			t.slots[s] = int32(g + 1)
			t.hashes = append(t.hashes, h)
			for _, c := range t.spec.GroupBy {
				t.keys = append(t.keys, cols[c][i])
			}
			t.sums = append(t.sums, make([]int64, t.sw)...)
			t.counts = append(t.counts, 0)
			for d := 0; d < t.dw; d++ {
				t.distinct = append(t.distinct, map[int64]struct{}{})
			}
			if uint64(t.n)*4 > (t.mask+1)*3 {
				t.grow()
			}
			return g
		}
		g := int(gi - 1)
		if t.hashes[g] != h {
			continue
		}
		eq := true
		for k, c := range t.spec.GroupBy {
			if t.keys[g*t.gw+k] != cols[c][i] {
				eq = false
				break
			}
		}
		if eq {
			return g
		}
	}
}

// findOrCreateKey returns the group id of an already-extracted flat key,
// creating the group if absent (the merge path, where the source group's
// hash is reused verbatim).
func (t *aggTable) findOrCreateKey(h uint64, key []int64) int {
	for s := h & t.mask; ; s = (s + 1) & t.mask {
		gi := t.slots[s]
		if gi == 0 {
			return t.newGroup(s, h, Row(key), t.idCols)
		}
		g := int(gi - 1)
		if t.hashes[g] != h {
			continue
		}
		eq := true
		for i := 0; i < t.gw; i++ {
			if t.keys[g*t.gw+i] != key[i] {
				eq = false
				break
			}
		}
		if eq {
			return g
		}
	}
}

func (t *aggTable) newGroup(slot uint64, h uint64, r Row, cols []int) int {
	g := t.n
	t.n++
	t.slots[slot] = int32(g + 1)
	t.hashes = append(t.hashes, h)
	for _, c := range cols {
		t.keys = append(t.keys, r[c])
	}
	t.sums = append(t.sums, make([]int64, t.sw)...)
	t.counts = append(t.counts, 0)
	for i := 0; i < t.dw; i++ {
		t.distinct = append(t.distinct, map[int64]struct{}{})
	}
	// Grow at 3/4 load; rehashing only touches the slot array (hashes are
	// stored per group).
	if uint64(t.n)*4 > (t.mask+1)*3 {
		t.grow()
	}
	return g
}

// approxBytes estimates the table's tracked footprint: the slot array plus
// per-group hash, key, sum and count storage (and a nominal map allowance
// per COUNT(DISTINCT) set). Monotone in n, so charging the delta after each
// batch keeps the reservation current.
func (t *aggTable) approxBytes() int64 {
	per := int64(8 + t.gw*8 + t.sw*8 + 8 + t.dw*48)
	return int64(t.mask+1)*4 + int64(t.n)*per
}

func (t *aggTable) grow() {
	size := 2 * (t.mask + 1)
	t.mask = size - 1
	t.slots = make([]int32, size)
	for g := 0; g < t.n; g++ {
		s := t.hashes[g] & t.mask
		for t.slots[s] != 0 {
			s = (s + 1) & t.mask
		}
		t.slots[s] = int32(g + 1)
	}
}

// mergeFrom folds another table's partial aggregates into t — the final
// merge of worker-local aggregation state in the parallel pipeline. Both
// tables must share the same spec.
func (t *aggTable) mergeFrom(o *aggTable) {
	for g := 0; g < o.n; g++ {
		tg := t.findOrCreateKey(o.hashes[g], o.keys[g*o.gw:(g+1)*o.gw])
		for i := 0; i < t.sw; i++ {
			t.sums[tg*t.sw+i] += o.sums[g*o.sw+i]
		}
		t.counts[tg] += o.counts[g]
		for i := 0; i < t.dw; i++ {
			dst := t.distinct[tg*t.dw+i]
			for v := range o.distinct[g*o.dw+i] {
				dst[v] = struct{}{}
			}
		}
	}
}

// rows renders the groups as output rows in deterministic (sorted group
// key) order: group-by columns, SUMs, COUNT(*) if requested, then
// COUNT(DISTINCT) values. A scalar aggregate (no GROUP BY) yields exactly
// one row even over empty input: the engine has no NULLs, so its SUMs,
// COUNT(*) and COUNT(DISTINCT) values are all 0 there.
func (t *aggTable) rows() []Row {
	if t.n == 0 && t.gw == 0 {
		w := t.sw + t.dw
		if t.spec.CountAll {
			w++
		}
		return []Row{make(Row, w)}
	}
	out := make([]Row, 0, t.n)
	for g := 0; g < t.n; g++ {
		row := make(Row, 0, t.gw+t.sw+1+t.dw)
		row = append(row, t.keys[g*t.gw:(g+1)*t.gw]...)
		row = append(row, t.sums[g*t.sw:(g+1)*t.sw]...)
		if t.spec.CountAll {
			row = append(row, t.counts[g])
		}
		for i := 0; i < t.dw; i++ {
			row = append(row, int64(len(t.distinct[g*t.dw+i])))
		}
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool { return rowLess(out[i], out[j]) })
	return out
}

// ---- vectorized hash aggregation ----

type vecHashAggOp struct {
	in    VecIterator
	spec  AggSpecExec
	mem   *MemTracker // nil = untracked; set by the compiler
	out   colData
	pos   int
	batch Batch
}

// NewVecHashAgg returns a blocking hash aggregation. It consumes its input
// batch-at-a-time through aggTable.addBatch (columnar group-key
// hashing and per-column accumulator loops) and emits the aggregated groups
// as dense column windows in aggTable.rows() order.
func NewVecHashAgg(in VecIterator, spec AggSpecExec) VecIterator {
	return &vecHashAggOp{in: in, spec: spec}
}

func (a *vecHashAggOp) Open() error {
	t := newAggTable(a.spec)
	if err := a.in.Open(); err != nil {
		return err
	}
	var (
		scratch aggScratch
		sp      *aggSpill
		part    *spillPartitioner
		charged int64
	)
	// COUNT(DISTINCT) state cannot round-trip through scalar partials, so
	// such plans stay in memory (Force-charged; see spillagg.go).
	spillable := a.mem.Bounded() && len(a.spec.CountDistinct) == 0
	fail := func(err error) error {
		if part != nil {
			part.abort()
		}
		a.mem.Release(charged)
		return err
	}
	for {
		b, err := a.in.Next()
		if err != nil {
			return fail(errors.Join(err, a.in.Close()))
		}
		if b == nil {
			break
		}
		t.addBatch(b.Cols, b.N, b.Sel, &scratch)
		if a.mem == nil {
			continue
		}
		delta := t.approxBytes() - charged
		if delta <= 0 {
			continue
		}
		if !spillable {
			a.mem.Force(delta)
			charged += delta
			continue
		}
		if a.mem.Reserve(delta) {
			charged += delta
			continue
		}
		// The table outgrew its reservation: dump partials to disk and
		// restart in-memory pre-aggregation on the remaining input.
		if sp == nil {
			sp = newAggSpill(a.spec, a.mem)
			if part, err = newSpillPartitioner(a.mem, sp.pw, sp.keyOffs, 0); err != nil {
				part = nil
				return fail(errors.Join(err, a.in.Close()))
			}
		}
		if err := sp.dump(t, part); err != nil {
			return fail(errors.Join(err, a.in.Close()))
		}
		a.mem.Release(charged)
		charged = 0
		t = newAggTable(a.spec)
	}
	if err := a.in.Close(); err != nil {
		return fail(err)
	}
	var rows []Row
	if part == nil {
		rows = t.rows()
		a.mem.Release(charged)
		charged = 0
	} else {
		if err := sp.dump(t, part); err != nil {
			return fail(err)
		}
		a.mem.Release(charged)
		charged = 0
		runs, err := part.finish(a.mem)
		if err != nil {
			return err
		}
		if rows, err = sp.mergeAll(runs); err != nil {
			return err
		}
	}
	var arity int
	if len(rows) > 0 {
		arity = len(rows[0])
	}
	// The final output must materialize for the consumer regardless of
	// budget; Force records any overage.
	a.mem.Force(colBytes(arity, len(rows)))
	a.out = transposeRows(rowsAsRaw(rows), arity)
	a.pos = 0
	return nil
}

func rowsAsRaw(rows []Row) [][]int64 {
	out := make([][]int64, len(rows))
	for i, r := range rows {
		out[i] = r
	}
	return out
}

func (a *vecHashAggOp) Next() (*Batch, error) {
	if a.pos >= a.out.n {
		return nil, nil
	}
	end := a.pos + BatchSize
	if end > a.out.n {
		end = a.out.n
	}
	a.batch.Cols = a.out.window(a.batch.Cols, a.pos, end)
	a.batch.N = end - a.pos
	a.batch.Sel = nil
	a.pos = end
	return &a.batch, nil
}

func (a *vecHashAggOp) Close() error {
	a.out = colData{}
	a.mem.ReleaseAll()
	return nil
}

func rowLess(a, b Row) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
