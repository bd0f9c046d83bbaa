package exec

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/relalg"
	"repro/internal/testkit"
	"repro/internal/tpch"
	"repro/internal/volcano"
)

// ---- vectorized operator unit tests ----

func TestVecScanBatchesAndSelection(t *testing.T) {
	n := 3*BatchSize + 17
	data := make([][]int64, n)
	for i := range data {
		data[i] = []int64{int64(i), int64(i % 2)}
	}
	v := NewVecScanRows(data, ScanFilter{Conds: []ScanCond{{Off: 1, Op: relalg.CmpEQ, Val: 0}}})
	if err := v.Open(); err != nil {
		t.Fatal(err)
	}
	var total, batches int
	for {
		b, err := v.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		batches++
		if b.N > BatchSize {
			t.Fatalf("batch of %d rows exceeds capacity %d", b.N, BatchSize)
		}
		for k := 0; k < b.Len(); k++ {
			idx := k
			if b.Sel != nil {
				idx = b.Sel[k]
			}
			if b.Cols[1][idx] != 0 {
				t.Fatalf("selection vector leaked filtered row %d", b.Cols[0][idx])
			}
		}
		total += b.Len()
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if want := (n + 1) / 2; total != want {
		t.Fatalf("selected %d rows, want %d", total, want)
	}
	if batches != 4 {
		t.Fatalf("got %d batches, want 4", batches)
	}
}

func TestParallelScanMatchesSerial(t *testing.T) {
	n := 10*morselSize + 123
	data := make([][]int64, n)
	for i := range data {
		data[i] = []int64{int64(i), int64(i % 7)}
	}
	filter := ScanFilter{Conds: []ScanCond{{Off: 1, Op: relalg.CmpLT, Val: 3}}}
	serial, err := DrainVec(NewVecScanRows(data, filter))
	if err != nil {
		t.Fatal(err)
	}
	cols := transposeRows(data, 2)
	for _, workers := range []int{2, 4, 13} {
		par, err := DrainVec(NewParallelScan(cols.cols, cols.n, filter, workers))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := rowMultiset(par), rowMultiset(serial); got != want {
			t.Fatalf("workers=%d: parallel scan multiset differs from serial", workers)
		}
	}
}

func TestParallelScanEarlyClose(t *testing.T) {
	data := make([][]int64, 50*morselSize)
	for i := range data {
		data[i] = []int64{int64(i)}
	}
	cols := transposeRows(data, 1)
	v := NewParallelScan(cols.cols, cols.n, ScanFilter{}, 4)
	if err := v.Open(); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Next(); err != nil {
		t.Fatal(err)
	}
	// Close with most batches unconsumed: workers must unblock and exit.
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil { // double close is a no-op
		t.Fatal(err)
	}
}

func TestVecHashJoinSpansBatches(t *testing.T) {
	// Every probe row matches every build row: 60 * 60 = 3600 outputs,
	// forcing multiple output batch flushes.
	build := make([][]int64, 60)
	probe := make([][]int64, 60)
	for i := range build {
		build[i] = []int64{1, int64(i)}
		probe[i] = []int64{1, int64(100 + i)}
	}
	v := NewVecHashJoin(NewVecScanRows(build, ScanFilter{}), NewVecScanRows(probe, ScanFilter{}), []int{0}, []int{0}, nil, 1)
	out, err := DrainVec(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3600 {
		t.Fatalf("got %d join rows, want 3600", len(out))
	}
	for _, r := range out {
		if len(r) != 4 || r[0] != 1 || r[2] != 1 {
			t.Fatalf("bad join row %v", r)
		}
	}
}

func TestVecProject(t *testing.T) {
	out, err := DrainVec(NewVecProject(NewVecScanRows(rows([]int64{1, 2, 3}), ScanFilter{}), []int{2, 0}))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0][0] != 3 || out[0][1] != 1 {
		t.Fatalf("vec project = %v", out)
	}
}

// ---- error-path tests ----

type failingIter struct{ closeErr error }

func (f *failingIter) Open() error           { return nil }
func (f *failingIter) Next() (*Batch, error) { return nil, errors.New("next failed") }
func (f *failingIter) Close() error          { return f.closeErr }

func TestDrainJoinsCloseError(t *testing.T) {
	closeErr := errors.New("close failed")
	_, err := DrainVec(&failingIter{closeErr: closeErr})
	if err == nil || !strings.Contains(err.Error(), "next failed") {
		t.Fatalf("DrainVec error = %v, want next error", err)
	}
	if !errors.Is(err, closeErr) {
		t.Fatalf("DrainVec error %v does not join the Close error", err)
	}
	if _, err := CountVec(&failingIter{closeErr: closeErr}); !errors.Is(err, closeErr) {
		t.Fatalf("CountVec error %v does not join the Close error", err)
	}
}

// TestVecHashJoinOpenErrorReleasesProbe: when draining the build side fails
// (unsorted merge join below), the already-opened probe side — including
// parallel scan workers — must be released rather than leaked.
func TestVecHashJoinOpenErrorReleasesProbe(t *testing.T) {
	probeData := make([][]int64, 8*morselSize)
	for i := range probeData {
		probeData[i] = []int64{int64(i)}
	}
	unsorted := rows([]int64{2}, []int64{1})
	sorted := rows([]int64{1})
	build := NewVecMergeJoin(NewVecScanRows(unsorted, ScanFilter{}), NewVecScanRows(sorted, ScanFilter{}), 0, 0, nil)
	before := runtime.NumGoroutine()
	probeCols := transposeRows(probeData, 1)
	j := NewVecHashJoin(build, NewParallelScan(probeCols.cols, probeCols.n, ScanFilter{}, 4), []int{0}, []int{0}, nil, 1)
	if err := j.Open(); err == nil {
		t.Fatal("unsorted build input accepted")
	}
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("probe-side workers leaked: %d goroutines, started with %d",
		runtime.NumGoroutine(), before)
}

// ---- differential test: executor vs oracle, TPC-H workload ----

func rowMultiset[R ~[]int64](rows []R) string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		var b strings.Builder
		for _, v := range r {
			fmt.Fprintf(&b, "|%d", v)
		}
		keys[i] = b.String()
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// TestTPCHOracleDifferential executes every TPC-H workload query at every
// parallelism level (serial, and with fused parallel pipelines plus
// morsel-driven scans at 2 and 4 workers) and holds the result multiset and
// every RunStats feedback cardinality against the plan-independent testkit
// oracle — the proof that the §5.4 adaptive loop sees exact, identical
// feedback at any parallelism. Run under -race (the CI race shard) this
// also exercises the pipeline workers, partitioned build, and exchange
// machinery for data races.
func TestTPCHOracleDifferential(t *testing.T) {
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 7})
	for name, q := range tpch.Queries() {
		m, err := cost.NewModel(q, cat, cost.DefaultParams())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		vr, err := volcano.Optimize(m, relalg.DefaultSpace())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		o, err := testkit.NewOracle(q, cat)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, par := range []int{1, 2, 4} {
			comp := &Compiler{Q: q, Cat: cat, Parallelism: par}
			checkOracle(t, fmt.Sprintf("%s (par=%d)", name, par), comp, vr.Plan, o)
		}
	}
}

// TestCompileParallelCountMatches runs a join query end to end via CountVec
// under a fused parallel pipeline — the aqp.RunSlice code path.
func TestCompileParallelCountMatches(t *testing.T) {
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 11})
	q := tpch.Q3S()
	m, _ := cost.NewModel(q, cat, cost.DefaultParams())
	vr, err := volcano.Optimize(m, relalg.DefaultSpace())
	if err != nil {
		t.Fatal(err)
	}
	o, err := testkit.NewOracle(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	parComp := &Compiler{Q: q, Cat: cat, Parallelism: 4}
	v, _, err := parComp.CompileVec(vr.Plan)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CountVec(v)
	if err != nil {
		t.Fatal(err)
	}
	if want := o.Card(q.AllRels()); got != want {
		t.Fatalf("parallel count = %d, oracle count = %d", got, want)
	}
}
