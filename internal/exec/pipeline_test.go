package exec

import (
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/relalg"
	"repro/internal/tpch"
	"repro/internal/volcano"
)

// compileFor optimizes q and compiles it at the given parallelism.
func compileFor(t *testing.T, q *relalg.Query, par int) (VecIterator, *RunStats) {
	t.Helper()
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 7})
	m, err := cost.NewModel(q, cat, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	vr, err := volcano.Optimize(m, relalg.DefaultSpace())
	if err != nil {
		t.Fatal(err)
	}
	comp := &Compiler{Q: q, Cat: cat, Parallelism: par}
	v, stats, err := comp.CompileVec(vr.Plan)
	if err != nil {
		t.Fatal(err)
	}
	return v, stats
}

// TestCompilePipelineFuses asserts that the compiler actually fuses the
// workload shapes the pipeline was built for: join chains with and without
// aggregation, a multi-stage cascade, and the bare scan+agg plan.
func TestCompilePipelineFuses(t *testing.T) {
	cases := []struct {
		q      *relalg.Query
		stages int
		agg    bool
	}{
		{tpch.Q3S(), 1, false}, // driving example: join chain, no agg
		{tpch.Q5(), 1, true},   // six-way join + agg
		{tpch.Q1(), 0, true},   // bare scan + agg (zero-stage pipeline)
	}
	for _, tc := range cases {
		v, _ := compileFor(t, tc.q, 4)
		pp, ok := v.(*parallelPipelineOp)
		if !ok {
			t.Fatalf("%s: compiled root is %T, want *parallelPipelineOp", tc.q.Name, v)
		}
		if len(pp.stages) != tc.stages {
			t.Errorf("%s: fused %d stages, want %d", tc.q.Name, len(pp.stages), tc.stages)
		}
		if (pp.agg != nil) != tc.agg {
			t.Errorf("%s: agg fused = %v, want %v", tc.q.Name, pp.agg != nil, tc.agg)
		}
	}
	// Serial compilation must not fuse.
	v, _ := compileFor(t, tpch.Q3S(), 1)
	if _, ok := v.(*parallelPipelineOp); ok {
		t.Fatal("Parallelism=1 compiled to a parallel pipeline")
	}
}

// TestPipelineCascadeMatchesSerial builds a two-stage probe cascade by hand
// and checks it against the nested serial hash joins, including residual
// filters and exact per-stage cardinality counters.
func TestPipelineCascadeMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	probe := make([][]int64, 6*morselSize)
	for i := range probe {
		probe[i] = []int64{int64(rng.Intn(200)), int64(rng.Intn(100)), int64(i)}
	}
	buildA := make([][]int64, 150)
	for i := range buildA {
		buildA[i] = []int64{int64(rng.Intn(200)), int64(100 + i)}
	}
	buildB := make([][]int64, 80)
	for i := range buildB {
		buildB[i] = []int64{int64(rng.Intn(100)), int64(1000 + i)}
	}
	filter := ScanFilter{Conds: []ScanCond{{Off: 1, Op: relalg.CmpLT, Val: 90}}}
	// Structured residual over the final joined row
	// [b0, b1, a0, a1, p0, p1, p2]: b1 < p2, true for some pairs only.
	residual := []ColPred{{L: 1, R: 6, Op: relalg.CmpLT}}

	// Serial reference: joinB(joinA(filtered probe)). Stage A joins
	// buildA on probe col 0, stage B joins buildB on probe col 1 (offset
	// shifts by len(buildA row) = 2 after stage A).
	serial := NewVecHashJoin(
		NewVecScanRows(buildB, ScanFilter{}),
		NewVecHashJoin(
			NewVecScanRows(buildA, ScanFilter{}),
			NewVecScanRows(probe, filter),
			[]int{0}, []int{0}, nil, 1),
		[]int{0}, []int{3}, residual, 1)
	want, err := DrainVec(serial)
	if err != nil {
		t.Fatal(err)
	}

	var scanN, aN, bN int64
	stages := []*pipeStage{
		{build: NewVecScanRows(buildA, ScanFilter{}), buildKeys: []int{0},
			probeKeys: []int{0}, card: &aN},
		{build: NewVecScanRows(buildB, ScanFilter{}), buildKeys: []int{0},
			probeKeys: []int{3}, residual: residual, card: &bN},
	}
	pipe := newParallelPipeline(transposeRows(probe, 3), filter, &scanN, stages, 4)
	got, err := DrainVec(pipe)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := rowMultiset(got), rowMultiset(want); g != w {
		t.Fatalf("pipeline multiset differs from serial: %d rows vs %d", len(got), len(want))
	}
	if bN != int64(len(want)) {
		t.Errorf("final stage counter = %d, want %d", bN, len(want))
	}
	wantScan, err := CountVec(NewVecScanRows(probe, filter))
	if err != nil {
		t.Fatal(err)
	}
	if scanN != wantScan {
		t.Errorf("scan counter = %d, want %d", scanN, wantScan)
	}
	wantA, err := CountVec(NewVecHashJoin(NewVecScanRows(buildA, ScanFilter{}),
		NewVecScanRows(probe, filter), []int{0}, []int{0}, nil, 1))
	if err != nil {
		t.Fatal(err)
	}
	if aN != wantA {
		t.Errorf("stage A counter = %d, want %d", aN, wantA)
	}
}

// TestPipelineAggMatchesSerial runs the same cascade with a fused
// aggregation terminal against the serial hash-agg-over-join reference.
func TestPipelineAggMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	probe := make([][]int64, 5*morselSize)
	for i := range probe {
		probe[i] = []int64{int64(rng.Intn(50)), int64(rng.Intn(1000))}
	}
	build := make([][]int64, 300)
	for i := range build {
		build[i] = []int64{int64(rng.Intn(50)), int64(i % 7)}
	}
	spec := AggSpecExec{GroupBy: []int{1}, Sums: []int{3}, CountAll: true,
		CountDistinct: []int{0}}

	serial := NewVecHashAgg(NewVecHashJoin(NewVecScanRows(build, ScanFilter{}),
		NewVecScanRows(probe, ScanFilter{}), []int{0}, []int{0}, nil, 1), spec)
	want, err := DrainVec(serial)
	if err != nil {
		t.Fatal(err)
	}

	var scanN, joinN int64
	stages := []*pipeStage{{build: NewVecScanRows(build, ScanFilter{}),
		buildKeys: []int{0}, probeKeys: []int{0}, card: &joinN}}
	pipe := newParallelPipeline(transposeRows(probe, 2), ScanFilter{}, &scanN, stages, 4)
	pipe.fuseAgg(spec)
	got, err := DrainVec(pipe)
	if err != nil {
		t.Fatal(err)
	}
	// Aggregated output is deterministically ordered, so compare exactly.
	if g, w := rowMultiset(got), rowMultiset(want); g != w {
		t.Fatalf("fused agg differs from serial: %d groups vs %d", len(got), len(want))
	}
	for i := range got {
		if rowLess(got[i], want[i]) || rowLess(want[i], got[i]) {
			t.Fatalf("fused agg order differs at group %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestAggTableMerge splits a row stream across worker tables and checks the
// merged result against a single table, covering sums, COUNT(*) and
// COUNT(DISTINCT).
func TestAggTableMerge(t *testing.T) {
	spec := AggSpecExec{GroupBy: []int{0, 1}, Sums: []int{2}, CountAll: true,
		CountDistinct: []int{3}}
	rng := rand.New(rand.NewSource(5))
	rows := make([]Row, 20000)
	for i := range rows {
		rows[i] = Row{int64(rng.Intn(13)), int64(rng.Intn(7)),
			int64(rng.Intn(100)), int64(rng.Intn(9))}
	}
	single := newAggTable(spec)
	addRows(single, rows)
	parts := make([]*aggTable, 4)
	split := make([][]Row, len(parts))
	for i, r := range rows {
		split[i%4] = append(split[i%4], r)
	}
	for i := range parts {
		parts[i] = newAggTable(spec)
		addRows(parts[i], split[i])
	}
	merged := parts[0]
	for _, p := range parts[1:] {
		merged.mergeFrom(p)
	}
	got, want := merged.rows(), single.rows()
	if len(got) != len(want) {
		t.Fatalf("merged %d groups, single table has %d", len(got), len(want))
	}
	for i := range got {
		if rowLess(got[i], want[i]) || rowLess(want[i], got[i]) {
			t.Fatalf("group %d: merged %v, single %v", i, got[i], want[i])
		}
	}
}

// TestAggTableGlobalGroup covers the zero-width group key (no GROUP BY).
func TestAggTableGlobalGroup(t *testing.T) {
	spec := AggSpecExec{Sums: []int{0}, CountAll: true}
	var ra, rb []Row
	for i := int64(0); i < 1000; i++ {
		ra = append(ra, Row{i})
		rb = append(rb, Row{i * 2})
	}
	a, b := newAggTable(spec), newAggTable(spec)
	addRows(a, ra)
	addRows(b, rb)
	a.mergeFrom(b)
	out := a.rows()
	if len(out) != 1 {
		t.Fatalf("global aggregate produced %d rows, want 1", len(out))
	}
	if out[0][0] != 999*1000/2*3 || out[0][1] != 2000 {
		t.Fatalf("global aggregate = %v", out[0])
	}
}

// TestBuildJoinTableParallelMatchesSerial checks the partitioned parallel
// build produces the same table as the serial build: same sizing, same
// hashes, and identical per-bucket chain membership.
func TestBuildJoinTableParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rows := make([][]int64, 3*minParallelRows+777)
	for i := range rows {
		rows[i] = []int64{int64(rng.Intn(5000)), int64(rng.Intn(64)), int64(i)}
	}
	keys := []int{0, 1}
	data := transposeRows(rows, 3)
	serial := buildJoinTable(data, keys)
	for _, workers := range []int{2, 4, 7} {
		par := buildJoinTableParallel(data, keys, workers)
		if par.mask != serial.mask {
			t.Fatalf("workers=%d: mask %d != serial %d", workers, par.mask, serial.mask)
		}
		for i := range rows {
			if par.hashes[i] != serial.hashes[i] {
				t.Fatalf("workers=%d: hash of row %d differs", workers, i)
			}
		}
		chain := func(t *joinTable, b int) map[int32]bool {
			m := map[int32]bool{}
			for ci := t.head[b]; ci != 0; ci = t.next[ci-1] {
				m[ci] = true
			}
			return m
		}
		for b := 0; b <= int(serial.mask); b++ {
			sc, pc := chain(serial, b), chain(par, b)
			if len(sc) != len(pc) {
				t.Fatalf("workers=%d: bucket %d has %d rows, serial %d", workers, b, len(pc), len(sc))
			}
			for i := range sc {
				if !pc[i] {
					t.Fatalf("workers=%d: bucket %d missing row %d", workers, b, i)
				}
			}
		}
	}
}
