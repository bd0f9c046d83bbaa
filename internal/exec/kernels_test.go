package exec

import (
	"math/rand"
	"testing"

	"repro/internal/relalg"
)

// ---- expression kernel unit tests ----

func TestGather(t *testing.T) {
	src := []int64{10, 20, 30, 40, 50}
	dst := make([]int64, 3)
	Gather(dst, src, []int32{4, 0, 2})
	if dst[0] != 50 || dst[1] != 10 || dst[2] != 30 {
		t.Fatalf("Gather = %v", dst)
	}
	// Empty index vector: no writes, no panic.
	Gather(dst[:0], src, nil)
	// Full-batch identity gather.
	full := make([]int64, len(src))
	idx := make([]int32, len(src))
	for i := range idx {
		idx[i] = int32(i)
	}
	Gather(full, src, idx)
	for i := range src {
		if full[i] != src[i] {
			t.Fatalf("identity gather differs at %d", i)
		}
	}
}

func TestArithmeticKernels(t *testing.T) {
	a := []int64{1, -2, 3, 1 << 40}
	b := []int64{10, 20, -30, 5}
	dst := make([]int64, 4)
	AddCols(dst, a, b)
	for i := range dst {
		if dst[i] != a[i]+b[i] {
			t.Fatalf("AddCols[%d] = %d", i, dst[i])
		}
	}
	SubCols(dst, a, b)
	for i := range dst {
		if dst[i] != a[i]-b[i] {
			t.Fatalf("SubCols[%d] = %d", i, dst[i])
		}
	}
	MulCols(dst, a, b)
	for i := range dst {
		if dst[i] != a[i]*b[i] {
			t.Fatalf("MulCols[%d] = %d", i, dst[i])
		}
	}
	AddConst(dst, a, 7)
	for i := range dst {
		if dst[i] != a[i]+7 {
			t.Fatalf("AddConst[%d] = %d", i, dst[i])
		}
	}
	// Empty destination: all kernels are no-ops.
	AddCols(nil, nil, nil)
	SubCols(nil, nil, nil)
	MulCols(nil, nil, nil)
	AddConst(nil, nil, 1)
}

func TestMinMaxCol(t *testing.T) {
	col := []int64{5, -3, 8, 0, 8, -3}
	if v, ok := MinCol(col, len(col), nil); !ok || v != -3 {
		t.Fatalf("MinCol dense = %d, %v", v, ok)
	}
	if v, ok := MaxCol(col, len(col), nil); !ok || v != 8 {
		t.Fatalf("MaxCol dense = %d, %v", v, ok)
	}
	sel := []int{0, 2, 3}
	if v, ok := MinCol(col, len(col), sel); !ok || v != 0 {
		t.Fatalf("MinCol sel = %d, %v", v, ok)
	}
	if v, ok := MaxCol(col, len(col), sel); !ok || v != 8 {
		t.Fatalf("MaxCol sel = %d, %v", v, ok)
	}
	// Empty selection and empty column both report ok=false.
	if _, ok := MinCol(col, len(col), []int{}); ok {
		t.Fatal("MinCol on empty selection reported ok")
	}
	if _, ok := MaxCol(nil, 0, nil); ok {
		t.Fatal("MaxCol on empty column reported ok")
	}
	// Single-element edge.
	if v, ok := MinCol(col, 1, nil); !ok || v != 5 {
		t.Fatalf("MinCol n=1 = %d, %v", v, ok)
	}
}

func TestCaseSelect(t *testing.T) {
	cond := []int64{1, 0, -7, 0}
	a := []int64{10, 20, 30, 40}
	b := []int64{-1, -2, -3, -4}
	dst := make([]int64, 4)
	CaseSelect(dst, cond, a, b)
	want := []int64{10, -2, 30, -4}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("CaseSelect = %v, want %v", dst, want)
		}
	}
	CaseSelect(nil, nil, nil, nil) // empty batch is a no-op
}

// ---- property test: columnar selection vs row-path closures ----

// TestSelColsMatchesRowClosures drives ScanFilter.SelCols over random
// column-major chunks with random condition sets and checks the selected
// row set against evaluating every condition row by row. Also pins the
// empty-selection and full-batch edges.
func TestSelColsMatchesRowClosures(t *testing.T) {
	ops := []relalg.CmpOp{relalg.CmpEQ, relalg.CmpNE, relalg.CmpLT,
		relalg.CmpLE, relalg.CmpGT, relalg.CmpGE}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		width := 1 + rng.Intn(4)
		n := rng.Intn(2 * BatchSize)
		cols := make([][]int64, width)
		for c := range cols {
			cols[c] = make([]int64, n)
			for i := range cols[c] {
				cols[c][i] = int64(rng.Intn(20))
			}
		}
		nconds := rng.Intn(4)
		conds := make([]ScanCond, nconds)
		for k := range conds {
			conds[k] = ScanCond{Off: rng.Intn(width),
				Op: ops[rng.Intn(len(ops))], Val: int64(rng.Intn(20))}
		}
		filter := ScanFilter{Conds: conds}

		got := filter.SelCols(cols, n, nil)
		want := make([]int, 0, n)
		for i := 0; i < n; i++ {
			keep := true
			for _, c := range conds {
				if !c.Op.Eval(cols[c.Off][i], c.Val) {
					keep = false
					break
				}
			}
			if keep {
				want = append(want, i)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: selected %d rows, row closures keep %d",
				trial, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("trial %d: selection[%d] = %d, want %d",
					trial, k, got[k], want[k])
			}
		}
	}

	// Edges: a contradiction selects nothing; a tautology selects all rows
	// in order; the no-condition filter is dense.
	col := []int64{3, 1, 4, 1, 5}
	cols := [][]int64{col}
	empty := ScanFilter{Conds: []ScanCond{
		{Off: 0, Op: relalg.CmpLT, Val: 2},
		{Off: 0, Op: relalg.CmpGT, Val: 2},
	}}.SelCols(cols, len(col), nil)
	if len(empty) != 0 {
		t.Fatalf("contradictory filter selected %v", empty)
	}
	full := ScanFilter{Conds: []ScanCond{{Off: 0, Op: relalg.CmpGE, Val: 0}}}.
		SelCols(cols, len(col), nil)
	if len(full) != len(col) {
		t.Fatalf("tautological filter selected %d of %d rows", len(full), len(col))
	}
	for i := range full {
		if full[i] != i {
			t.Fatalf("tautological selection out of order: %v", full)
		}
	}
	dense := ScanFilter{}.SelCols(cols, len(col), nil)
	if len(dense) != len(col) {
		t.Fatalf("empty filter selected %d rows", len(dense))
	}
}

// ---- steady-state allocation test ----

// TestScanAggSteadyStateAllocs pins the zero-allocation contract of the
// serial columnar scan + aggregation loop — the Q1 benchmark shape at P=1.
// After one warm-up pass has sized the selection buffer, the hash/gid
// scratch, and the group table, re-running the scan and folding every batch
// into the table must not allocate: batches are zero-copy column windows
// and every per-batch buffer is recycled.
func TestScanAggSteadyStateAllocs(t *testing.T) {
	n := 8 * BatchSize
	rng := rand.New(rand.NewSource(17))
	data := colData{cols: make([][]int64, 4), n: n}
	for c := range data.cols {
		data.cols[c] = make([]int64, n)
		for i := range data.cols[c] {
			data.cols[c][i] = int64(rng.Intn(8))
		}
	}
	filter := ScanFilter{Conds: []ScanCond{{Off: 0, Op: relalg.CmpLT, Val: 7}}}
	spec := AggSpecExec{GroupBy: []int{1, 2}, Sums: []int{3}, CountAll: true}
	scan := NewVecScan(data.cols, data.n, filter).(*vecScanOp)
	table := newAggTable(spec)
	var scratch aggScratch
	// Memory accounting rides the same loop: per-batch tracker traffic on
	// both the nil (untracked) and the unbounded-root fast paths must stay
	// allocation-free too.
	tracked := NewMemTracker(0).Child("agg")
	var untracked *MemTracker
	pass := func() {
		if err := scan.Open(); err != nil {
			t.Fatal(err)
		}
		for {
			b, err := scan.Next()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			sz := colBytes(b.Width(), b.Len())
			if !tracked.Reserve(sz) {
				t.Fatal("unbounded tracker refused a reservation")
			}
			tracked.Force(sz)
			untracked.Reserve(sz)
			untracked.Force(sz)
			table.addBatch(b.Cols, b.N, b.Sel, &scratch)
		}
		tracked.ReleaseAll()
		untracked.ReleaseAll()
	}
	pass() // warm-up: sizes sel buffer, scratch, and creates all groups
	if allocs := testing.AllocsPerRun(10, pass); allocs != 0 {
		t.Fatalf("steady-state scan+agg allocates %.1f times per pass, want 0", allocs)
	}
}

// ---- kernel microbenchmarks ----

func BenchmarkSelColsDense(b *testing.B) {
	n := BatchSize
	col := make([]int64, n)
	for i := range col {
		col[i] = int64(i % 100)
	}
	cols := [][]int64{col}
	filter := ScanFilter{Conds: []ScanCond{{Off: 0, Op: relalg.CmpLT, Val: 90}}}
	buf := make([]int, 0, n)
	b.SetBytes(int64(n * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = filter.SelCols(cols, n, buf)
	}
}

func BenchmarkHashLive2Key(b *testing.B) {
	n := BatchSize
	c0, c1 := make([]int64, n), make([]int64, n)
	for i := range c0 {
		c0[i] = int64(i)
		c1[i] = int64(i % 7)
	}
	cols := [][]int64{c0, c1}
	var dst []uint64
	b.SetBytes(int64(n * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = hashLive(dst, cols, []int{0, 1}, n, nil)
	}
}

func BenchmarkGather(b *testing.B) {
	n := BatchSize
	src := make([]int64, n)
	idx := make([]int32, n)
	for i := range src {
		src[i] = int64(i)
		idx[i] = int32((i * 7) % n)
	}
	dst := make([]int64, n)
	b.SetBytes(int64(n * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gather(dst, src, idx)
	}
}
