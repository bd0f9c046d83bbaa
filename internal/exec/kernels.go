package exec

import (
	"sync"

	"repro/internal/relalg"
)

// This file holds the batch kernels that make the vectorized path fast:
// predicate selection loops specialized per comparison operator running
// over one contiguous column slice each (one operator dispatch per batch,
// no per-row pointer chase), a vectorized multiplicative hash over key
// columns, and a chained open-addressing hash table for the vectorized
// hash join whose build side is stored column-major.

// ScanCond is a structured pushed-down selection: col[Off] <Op> Val. The
// vectorized scans evaluate conditions with per-batch single-column
// kernels.
type ScanCond struct {
	Off int
	Op  relalg.CmpOp
	Val int64
}

// ScanFilter bundles the pushed-down selections of one scan.
type ScanFilter struct {
	Conds []ScanCond
}

// Empty reports whether the filter passes every row.
func (f ScanFilter) Empty() bool { return len(f.Conds) == 0 }

// SelCols computes the selection vector of a column-major chunk (cols[c]
// holding rows 0..n-1) into buf, which is reused across batches by the
// caller. The first condition scans its column densely; each further
// condition compacts the selection in place, touching only its own column.
func (f ScanFilter) SelCols(cols [][]int64, n int, buf []int) []int {
	sel := buf[:0]
	dense := true
	for _, c := range f.Conds {
		if dense {
			sel = condSelDense(cols[c.Off], n, c.Op, c.Val, sel)
			dense = false
		} else {
			sel = condSelRefine(cols[c.Off], c.Op, c.Val, sel)
		}
	}
	if dense {
		for i := 0; i < n; i++ {
			sel = append(sel, i)
		}
	}
	return sel
}

// condSelDense appends the indices i < n with col[i] <op> val to sel, with
// one operator dispatch for the whole column.
func condSelDense(col []int64, n int, op relalg.CmpOp, val int64, sel []int) []int {
	col = col[:n]
	switch op {
	case relalg.CmpEQ:
		for i, v := range col {
			if v == val {
				sel = append(sel, i)
			}
		}
	case relalg.CmpNE:
		for i, v := range col {
			if v != val {
				sel = append(sel, i)
			}
		}
	case relalg.CmpLT:
		for i, v := range col {
			if v < val {
				sel = append(sel, i)
			}
		}
	case relalg.CmpLE:
		for i, v := range col {
			if v <= val {
				sel = append(sel, i)
			}
		}
	case relalg.CmpGT:
		for i, v := range col {
			if v > val {
				sel = append(sel, i)
			}
		}
	case relalg.CmpGE:
		for i, v := range col {
			if v >= val {
				sel = append(sel, i)
			}
		}
	}
	return sel
}

// condSelRefine compacts sel in place to the rows whose col value also
// satisfies the condition.
func condSelRefine(col []int64, op relalg.CmpOp, val int64, sel []int) []int {
	out := sel[:0]
	switch op {
	case relalg.CmpEQ:
		for _, i := range sel {
			if col[i] == val {
				out = append(out, i)
			}
		}
	case relalg.CmpNE:
		for _, i := range sel {
			if col[i] != val {
				out = append(out, i)
			}
		}
	case relalg.CmpLT:
		for _, i := range sel {
			if col[i] < val {
				out = append(out, i)
			}
		}
	case relalg.CmpLE:
		for _, i := range sel {
			if col[i] <= val {
				out = append(out, i)
			}
		}
	case relalg.CmpGT:
		for _, i := range sel {
			if col[i] > val {
				out = append(out, i)
			}
		}
	case relalg.CmpGE:
		for _, i := range sel {
			if col[i] >= val {
				out = append(out, i)
			}
		}
	}
	return out
}

// ColPred is a structured residual predicate over a joined output row:
// row[L] <Op> row[R] + Off. Join equality residuals are {L, R, CmpEQ, 0};
// cross-relation filters carry their constant offset. Every residual the
// compiler generates has this shape, so joins evaluate residuals with
// column kernels on (build, probe) index pairs instead of gathering a row
// and calling a closure.
type ColPred struct {
	L, R int
	Op   relalg.CmpOp
	Off  int64
}

// evalColPredsRow evaluates the predicates against a materialized row —
// the row-shim and test helper; hot paths use filterPairs.
func evalColPredsRow(preds []ColPred, r Row) bool {
	for _, p := range preds {
		if !p.Op.Eval(r[p.L], r[p.R]+p.Off) {
			return false
		}
	}
	return true
}

// ---- vectorized hashing ----

const (
	hashSeed = uint64(0x9E3779B97F4A7C15)
	hashMul  = uint64(0xBF58476D1CE4E5B9)
)

// hashLive computes the hash of every live row of a column-major chunk into
// dst (reused across batches), one column pass per key: dst[k] is the hash
// of the k-th live row. The compound key is mixed with a multiplicative
// hash — h = hashSeed; h = (h ^ key_j) * hashMul for each key column; then
// h ^= h >> 32 — strong enough for bucket selection since every chain hit
// is verified by hash and key equality. hashDenseRange computes
// bit-identical values, so hashes stored by either stay comparable.
// One- and two-column keys (nearly every join and group-by in the workload)
// get fused single-pass loops; wider keys fall back to a pass per column.
func hashLive(dst []uint64, cols [][]int64, keys []int, n int, sel []int) []uint64 {
	m := n
	if sel != nil {
		m = len(sel)
	}
	if m == 0 {
		return dst[:0]
	}
	if cap(dst) < m {
		dst = make([]uint64, m)
	}
	dst = dst[:m]
	switch len(keys) {
	case 1:
		col := cols[keys[0]]
		if sel == nil {
			for i := 0; i < n; i++ {
				h := (hashSeed ^ uint64(col[i])) * hashMul
				dst[i] = h ^ h>>32
			}
		} else {
			for k, i := range sel {
				h := (hashSeed ^ uint64(col[i])) * hashMul
				dst[k] = h ^ h>>32
			}
		}
		return dst
	case 2:
		c0, c1 := cols[keys[0]], cols[keys[1]]
		if sel == nil {
			for i := 0; i < n; i++ {
				h := (hashSeed ^ uint64(c0[i])) * hashMul
				h = (h ^ uint64(c1[i])) * hashMul
				dst[i] = h ^ h>>32
			}
		} else {
			for k, i := range sel {
				h := (hashSeed ^ uint64(c0[i])) * hashMul
				h = (h ^ uint64(c1[i])) * hashMul
				dst[k] = h ^ h>>32
			}
		}
		return dst
	}
	for k := range dst {
		dst[k] = hashSeed
	}
	for _, key := range keys {
		col := cols[key]
		if sel == nil {
			for i := 0; i < n; i++ {
				dst[i] = (dst[i] ^ uint64(col[i])) * hashMul
			}
		} else {
			for k, i := range sel {
				dst[k] = (dst[k] ^ uint64(col[i])) * hashMul
			}
		}
	}
	for k := range dst {
		dst[k] ^= dst[k] >> 32
	}
	return dst
}

// hashDenseRange fills dst[lo:hi] with the hashes of rows lo..hi-1 of a
// column-major row set — the build-side hashing pass, shared by the serial
// and partitioned parallel join-table builds.
func hashDenseRange(dst []uint64, cols [][]int64, keys []int, lo, hi int) {
	if lo >= hi {
		return
	}
	switch len(keys) {
	case 1:
		col := cols[keys[0]]
		for i := lo; i < hi; i++ {
			h := (hashSeed ^ uint64(col[i])) * hashMul
			dst[i] = h ^ h>>32
		}
		return
	case 2:
		c0, c1 := cols[keys[0]], cols[keys[1]]
		for i := lo; i < hi; i++ {
			h := (hashSeed ^ uint64(c0[i])) * hashMul
			h = (h ^ uint64(c1[i])) * hashMul
			dst[i] = h ^ h>>32
		}
		return
	}
	for i := lo; i < hi; i++ {
		dst[i] = hashSeed
	}
	for _, key := range keys {
		col := cols[key]
		for i := lo; i < hi; i++ {
			dst[i] = (dst[i] ^ uint64(col[i])) * hashMul
		}
	}
	for i := lo; i < hi; i++ {
		dst[i] ^= dst[i] >> 32
	}
}

// colKeysEqual compares the compound key of build row bi against probe row
// pi, both column-major.
func colKeysEqual(bCols [][]int64, bKeys []int, bi int, pCols [][]int64, pKeys []int, pi int) bool {
	for k := range bKeys {
		if bCols[bKeys[k]][bi] != pCols[pKeys[k]][pi] {
			return false
		}
	}
	return true
}

// ---- join hash table ----

// joinTable is the vectorized hash join's build-side table: a power-of-two
// bucket array of chain heads plus per-row next links and full hashes for
// prefiltering, laid out as flat arrays instead of a Go map. The build rows
// themselves are column-major, so probe-time key verification and result
// stitching read contiguous column slices.
type joinTable struct {
	mask   uint64
	head   []int32 // bucket -> 1-based index of the chain head row
	next   []int32 // row -> 1-based index of the next row in its chain
	hashes []uint64
	data   colData
}

func buildJoinTable(data colData, keys []int) *joinTable {
	n := data.n
	size := 16
	for size < 2*n {
		size <<= 1
	}
	t := &joinTable{
		mask:   uint64(size - 1),
		head:   make([]int32, size),
		next:   make([]int32, n),
		hashes: make([]uint64, n),
		data:   data,
	}
	hashDenseRange(t.hashes, data.cols, keys, 0, n)
	for i := 0; i < n; i++ {
		b := t.hashes[i] & t.mask
		t.next[i] = t.head[b]
		t.head[b] = int32(i + 1)
	}
	return t
}

// newJoinTable picks the build strategy: partitioned parallel when the
// build side is large enough to pay for worker startup, serial otherwise.
// Either way the resulting table is the same read-only structure the probe
// loops already use.
func newJoinTable(data colData, keys []int, workers int) *joinTable {
	if workers > 1 && data.n >= minParallelRows {
		return buildJoinTableParallel(data, keys, workers)
	}
	return buildJoinTable(data, keys)
}

// buildJoinTableParallel builds the same flat chained table as
// buildJoinTable with a two-phase partitioned insert. Phase 1: workers hash
// disjoint row ranges column-wise and bin the row indices by destination
// bucket partition into per-(worker, partition) buffers. Phase 2: each
// partition owner links exactly the rows binned for its contiguous bucket
// range, so every head and next slot is written by a single goroutine and
// the table comes out identical (up to chain order, which the probe treats
// as a multiset) without any synchronization on the hot arrays.
func buildJoinTableParallel(data colData, keys []int, workers int) *joinTable {
	n := data.n
	size := 16
	for size < 2*n {
		size <<= 1
	}
	t := &joinTable{
		mask:   uint64(size - 1),
		head:   make([]int32, size),
		next:   make([]int32, n),
		hashes: make([]uint64, n),
		data:   data,
	}
	if workers > n {
		workers = n
	}
	// partition p owns buckets [p*size/workers, (p+1)*size/workers)
	partOf := func(bucket uint64) int { return int(bucket) * workers / size }

	bins := make([][][]int32, workers) // bins[worker][partition] -> row indices
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			hashDenseRange(t.hashes, data.cols, keys, lo, hi)
			mine := make([][]int32, workers)
			for i := lo; i < hi; i++ {
				p := partOf(t.hashes[i] & t.mask)
				mine[p] = append(mine[p], int32(i))
			}
			bins[w] = mine
		}(w, lo, hi)
	}
	wg.Wait()
	for p := 0; p < workers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for w := 0; w < workers; w++ {
				if bins[w] == nil {
					continue
				}
				for _, i := range bins[w][p] {
					b := t.hashes[i] & t.mask
					t.next[i] = t.head[b]
					t.head[b] = i + 1
				}
			}
		}(p)
	}
	wg.Wait()
	return t
}

// ---- sort kernel ----

// sortColsStable stable-sorts a column-major row set by one column: it
// sorts a row-index permutation, then gathers every column once through it.
func sortColsStable(data colData, col int) colData {
	if data.n == 0 {
		return data
	}
	n := data.n
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	key := data.cols[col]
	stableSortPerm(perm, key)
	out := colData{cols: make([][]int64, data.width()), n: n}
	flat := make([]int64, data.width()*n)
	for c, src := range data.cols {
		dst := flat[c*n : (c+1)*n : (c+1)*n]
		Gather(dst, src, perm)
		out.cols[c] = dst
	}
	return out
}
