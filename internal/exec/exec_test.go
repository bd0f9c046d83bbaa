package exec

import (
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/relalg"
	"repro/internal/stats"
	"repro/internal/systemr"
	"repro/internal/testkit"
	"repro/internal/tpch"
	"repro/internal/volcano"
)

// ---- operator unit tests ----

func rows(vals ...[]int64) [][]int64 { return vals }

func scanOf(data [][]int64) VecIterator { return NewVecScanRows(data, ScanFilter{}) }

func TestScanWithPredicates(t *testing.T) {
	data := rows([]int64{1, 10}, []int64{2, 20}, []int64{3, 30})
	out, err := DrainVec(NewVecScanRows(data, ScanFilter{Conds: []ScanCond{{Off: 1, Op: relalg.CmpGE, Val: 20}}}))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0][0] != 2 || out[1][0] != 3 {
		t.Fatalf("scan output = %v", out)
	}
}

func TestHashJoinCompoundKeys(t *testing.T) {
	l := scanOf(rows([]int64{1, 5}, []int64{1, 6}, []int64{2, 5}))
	r := scanOf(rows([]int64{1, 5, 100}, []int64{2, 6, 200}))
	out, err := DrainVec(NewVecHashJoin(l, r, []int{0, 1}, []int{0, 1}, nil, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0][2] != 1 || out[0][4] != 100 {
		t.Fatalf("compound-key join = %v", out)
	}
}

func TestMergeJoinRequiresSortedInputs(t *testing.T) {
	l := scanOf(rows([]int64{2}, []int64{1})) // unsorted
	r := scanOf(rows([]int64{1}))
	it := NewVecMergeJoin(l, r, 0, 0, nil)
	if err := it.Open(); err == nil {
		t.Fatal("unsorted merge input accepted")
	}
}

func TestMergeJoinDuplicateGroups(t *testing.T) {
	l := scanOf(rows([]int64{1, 1}, []int64{1, 2}, []int64{3, 3}))
	r := scanOf(rows([]int64{1, 10}, []int64{1, 20}, []int64{2, 30}))
	out, err := DrainVec(NewVecMergeJoin(l, r, 0, 0, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 { // 2x2 cross within key group 1
		t.Fatalf("merge join output = %v", out)
	}
}

func TestIndexNLJoin(t *testing.T) {
	inner := rows([]int64{1, 100}, []int64{2, 200}, []int64{2, 201})
	idx := buildColIndex(transposeRows(inner, 2), 0, ScanFilter{})
	outer := scanOf(rows([]int64{2, 9}, []int64{5, 9}))
	out, err := DrainVec(NewVecIndexNLJoin(outer, idx, 0, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0][1] != 200 || out[1][1] != 201 {
		t.Fatalf("index NL output = %v", out)
	}
}

func TestSortStable(t *testing.T) {
	out, err := DrainVec(NewVecSort(scanOf(rows([]int64{3, 0}, []int64{1, 1}, []int64{3, 2}, []int64{2, 3})), 0))
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 2, 3, 3}
	for i, r := range out {
		if r[0] != want[i] {
			t.Fatalf("sort output = %v", out)
		}
	}
	if out[2][1] != 0 || out[3][1] != 2 {
		t.Fatal("sort not stable")
	}
}

func TestHashAgg(t *testing.T) {
	data := rows(
		[]int64{1, 10, 5}, []int64{1, 20, 5}, []int64{2, 30, 7}, []int64{1, 5, 6},
	)
	out, err := DrainVec(NewVecHashAgg(scanOf(data), AggSpecExec{
		GroupBy: []int{0}, Sums: []int{1}, CountAll: true, CountDistinct: []int{2},
	}))
	if err != nil {
		t.Fatal(err)
	}
	// groups sorted: (1, sum 35, count 3, 2 distinct), (2, 30, 1, 1)
	if len(out) != 2 ||
		out[0][0] != 1 || out[0][1] != 35 || out[0][2] != 3 || out[0][3] != 2 ||
		out[1][0] != 2 || out[1][1] != 30 || out[1][2] != 1 || out[1][3] != 1 {
		t.Fatalf("agg output = %v", out)
	}
}

func TestCounter(t *testing.T) {
	var n int64
	if _, err := CountVec(NewVecCounter(scanOf(rows([]int64{1}, []int64{2})), &n)); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("counter = %d", n)
	}
}

func TestProject(t *testing.T) {
	// A projection spanning several batches, repeating and reordering
	// columns.
	data := make([][]int64, 2*BatchSize+3)
	for i := range data {
		data[i] = []int64{int64(i), -1, int64(i * 2)}
	}
	out, err := DrainVec(NewVecProject(scanOf(data), []int{2, 0, 2}))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(data) {
		t.Fatalf("project kept %d of %d rows", len(out), len(data))
	}
	for i, r := range out {
		if len(r) != 3 || r[0] != int64(i*2) || r[1] != int64(i) || r[2] != int64(i*2) {
			t.Fatalf("project row %d = %v", i, r)
		}
	}
}

// ---- end-to-end cross-plan equivalence ----

// tinyCatalog builds small tables with data for execution tests.
func tinyCatalog(seed uint64, nTables, rowsPer int) *catalog.Catalog {
	r := stats.NewRand(seed)
	cat := catalog.New()
	for i := 0; i < nTables; i++ {
		tb := catalog.NewTable(tableName(i), "c0", "c1", "c2", "c3")
		n := 1 + r.Intn(rowsPer)
		for j := 0; j < n; j++ {
			tb.Append([]int64{r.Int64n(8), r.Int64n(8), r.Int64n(8), r.Int64n(8)})
		}
		for c := 0; c < 4; c++ {
			if r.Intn(2) == 0 {
				tb.AddIndex(tb.ColNames[c])
			}
		}
		cat.Add(tb)
	}
	cat.AnalyzeAll(8)
	return cat
}

func tableName(i int) string { return "T" + string(rune('0'+i)) }

// randomExecQuery builds a small random join query over the tiny catalog.
func randomExecQuery(r *stats.Rand, cat *catalog.Catalog, nRels int) *relalg.Query {
	q := &relalg.Query{Name: "exec"}
	names := cat.Names()
	for i := 0; i < nRels; i++ {
		q.Rels = append(q.Rels, relalg.RelRef{
			Alias: "R" + string(rune('0'+i)), Table: names[r.Intn(len(names))],
		})
	}
	for i := 1; i < nRels; i++ {
		j := r.Intn(i)
		q.Joins = append(q.Joins, relalg.JoinPred{
			L: relalg.ColID{Rel: j, Off: r.Intn(4)},
			R: relalg.ColID{Rel: i, Off: r.Intn(4)},
		})
	}
	if r.Intn(2) == 0 {
		q.Scans = append(q.Scans, relalg.ScanPred{
			Col: relalg.ColID{Rel: r.Intn(nRels), Off: r.Intn(4)},
			Op:  relalg.CmpLE, Val: r.Int64n(8),
		})
	}
	// A residual comparison between two relations, applied by whichever
	// join first brings both sides together.
	if nRels > 1 && r.Intn(2) == 0 {
		a := r.Intn(nRels)
		b := (a + 1 + r.Intn(nRels-1)) % nRels
		ops := []relalg.CmpOp{relalg.CmpNE, relalg.CmpLT, relalg.CmpLE, relalg.CmpGT, relalg.CmpGE}
		q.Filters = append(q.Filters, relalg.FilterPred{
			L:  relalg.ColID{Rel: a, Off: r.Intn(4)},
			R:  relalg.ColID{Rel: b, Off: r.Intn(4)},
			Op: ops[r.Intn(len(ops))], Off: r.Int64n(3) - 1, Sel: 0.5,
		})
	}
	if err := q.Validate(); err != nil {
		panic(err)
	}
	return q
}

// ---- oracle comparison ----

// planSchema recomputes the output schema of a plan (mirrors the compiler).
func planSchema(q *relalg.Query, cat *catalog.Catalog, p *relalg.Plan) []relalg.ColID {
	switch p.Log {
	case relalg.LogScan:
		var s []relalg.ColID
		for off := range cat.MustTable(q.Rels[p.Rel].Table).ColNames {
			s = append(s, relalg.ColID{Rel: p.Rel, Off: off})
		}
		return s
	case relalg.LogEnforce:
		return planSchema(q, cat, p.Left)
	default:
		return append(planSchema(q, cat, p.Left), planSchema(q, cat, p.Right)...)
	}
}

// canonicalRows permutes join rows laid out by schema into the oracle's
// column order: every relation's columns in query relation order.
func canonicalRows(q *relalg.Query, cat *catalog.Catalog, schema []relalg.ColID, in []Row) []Row {
	base := make([]int, len(q.Rels))
	width := 0
	for rel, rr := range q.Rels {
		base[rel] = width
		width += len(cat.MustTable(rr.Table).ColNames)
	}
	out := make([]Row, len(in))
	for i, r := range in {
		row := make(Row, width)
		for k, c := range schema {
			row[base[c.Rel]+c.Off] = r[k]
		}
		out[i] = row
	}
	return out
}

// countedExprs returns the subexpressions whose cardinality executing plan
// must report: every scan and join node except enforcers and the inner of
// an index nested-loops join, which is probed through its index rather
// than scanned.
func countedExprs(p *relalg.Plan, out map[relalg.RelSet]bool) map[relalg.RelSet]bool {
	if out == nil {
		out = map[relalg.RelSet]bool{}
	}
	switch {
	case p.Log == relalg.LogEnforce:
		countedExprs(p.Left, out)
	case p.Log == relalg.LogJoin:
		out[p.Expr] = true
		if p.Phy != relalg.PhyIndexNLJoin {
			countedExprs(p.Left, out)
		}
		countedExprs(p.Right, out)
	default:
		out[p.Expr] = true
	}
	return out
}

// checkOracle executes plan through comp and holds the result multiset and
// every RunStats cardinality against the oracle: the stats must cover
// exactly the plan's counted subexpressions, each with the oracle's count.
func checkOracle(t *testing.T, label string, comp *Compiler, plan *relalg.Plan, o *testkit.Oracle) {
	t.Helper()
	q := comp.Q
	v, st, err := comp.CompileVec(plan)
	if err != nil {
		t.Fatalf("%s: compile: %v\n%s", label, err, plan.Explain(q))
	}
	got, err := DrainVec(v)
	if err != nil {
		t.Fatalf("%s: %v\n%s", label, err, plan.Explain(q))
	}
	if q.Agg == nil {
		got = canonicalRows(q, comp.Cat, planSchema(q, comp.Cat, plan), got)
	}
	if want := o.Rows(); rowMultiset(got) != rowMultiset(want) {
		t.Fatalf("%s: result multiset differs from the oracle: %d rows, oracle %d\n%s",
			label, len(got), len(want), plan.Explain(q))
	}
	exprs := countedExprs(plan, nil)
	if len(st.Cards) != len(exprs) {
		t.Fatalf("%s: stats cover %d subexpressions, plan counts %d\n%s",
			label, len(st.Cards), len(exprs), plan.Explain(q))
	}
	for set := range exprs {
		n, ok := st.Card(set)
		if want := o.Card(set); !ok || n != want {
			t.Fatalf("%s: cardinality of %s = %d (reported %v), oracle %d\n%s",
				label, q.SetString(set), n, ok, want, plan.Explain(q))
		}
	}
}

// TestPlansAgreeWithBruteForce executes the optimal plan of each
// architecture — and the deliberately worst plan — at parallelism 1 and 4
// and holds the result multiset and every RunStats cardinality against the
// testkit oracle. This exercises hash, merge and index-NL joins, sort
// enforcers, and residual predicates across arbitrary plan shapes, and the
// feedback every one of them reports to the adaptive loop.
func TestPlansAgreeWithBruteForce(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		r := stats.NewRand(seed * 131)
		cat := tinyCatalog(seed, 3, 30)
		q := randomExecQuery(r, cat, 2+int(seed%3))
		m, err := cost.NewModel(q, cat, cost.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		o, err := testkit.NewOracle(q, cat)
		if err != nil {
			t.Fatal(err)
		}

		var plans []*relalg.Plan
		if vr, err := volcano.Optimize(m, relalg.DefaultSpace()); err == nil {
			plans = append(plans, vr.Plan)
		} else {
			t.Fatal(err)
		}
		if sr, err := systemr.Optimize(m, relalg.DefaultSpace()); err == nil {
			plans = append(plans, sr.Plan)
		}
		opt, err := core.New(m, relalg.DefaultSpace(), core.PruneNone)
		if err != nil {
			t.Fatal(err)
		}
		if p, err := opt.Optimize(); err == nil {
			plans = append(plans, p)
		} else {
			t.Fatal(err)
		}
		if wp, err := opt.WorstPlan(); err == nil {
			plans = append(plans, wp)
		}

		for pi, plan := range plans {
			for _, par := range []int{1, 4} {
				comp := &Compiler{Q: q, Cat: cat, Parallelism: par}
				checkOracle(t, fmt.Sprintf("seed %d plan %d par %d", seed, pi, par), comp, plan, o)
			}
		}
	}
}

// TestRunStatsCollected checks the feedback probes: executing a plan yields
// an actual cardinality for every scan/join subexpression of the plan.
func TestRunStatsCollected(t *testing.T) {
	r := stats.NewRand(5)
	cat := tinyCatalog(5, 3, 40)
	q := randomExecQuery(r, cat, 3)
	m, _ := cost.NewModel(q, cat, cost.DefaultParams())
	vr, err := volcano.Optimize(m, relalg.DefaultSpace())
	if err != nil {
		t.Fatal(err)
	}
	comp := &Compiler{Q: q, Cat: cat}
	v, st, err := comp.CompileVec(vr.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CountVec(v); err != nil {
		t.Fatal(err)
	}
	var walk func(p *relalg.Plan)
	walk = func(p *relalg.Plan) {
		if p == nil {
			return
		}
		if p.Log != relalg.LogEnforce {
			if _, ok := st.Card(p.Expr); !ok {
				t.Fatalf("no actual cardinality for %v", p.Expr)
			}
		}
		walk(p.Left)
		walk(p.Right)
	}
	walk(vr.Plan)
}

// TestEmptyScalarAggregate: a scalar aggregate (no GROUP BY) over empty
// input returns exactly one row of zeros — COUNT(*), COUNT(DISTINCT) and
// SUM all 0 — through serial execution, the fused parallel pipeline, and
// the spill-capable aggregation under a tight memory budget, matching the
// oracle.
func TestEmptyScalarAggregate(t *testing.T) {
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 7})
	q := tpch.Q3S()
	const O, L = 1, 2 // orders, lineitem
	// o_orderkey < l_orderkey contradicts the join's o_orderkey =
	// l_orderkey: the plan keeps its usual shape (and fuses at P=4), but the
	// join chain produces no rows.
	q.Filters = append(q.Filters, relalg.FilterPred{
		L: relalg.ColID{Rel: O, Off: 0}, R: relalg.ColID{Rel: L, Off: 0}, Op: relalg.CmpLT, Sel: 0.5})
	q.Agg = &relalg.AggSpec{
		Sums:          []relalg.ColID{{Rel: L, Off: 5}},
		CountAll:      true,
		CountDistinct: []relalg.ColID{{Rel: O, Off: 1}},
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	m, err := cost.NewModel(q, cat, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	vr, err := volcano.Optimize(m, relalg.DefaultSpace())
	if err != nil {
		t.Fatal(err)
	}
	o, err := testkit.NewOracle(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	if want := o.Rows(); len(want) != 1 || rowMultiset(want) != rowMultiset([]Row{{0, 0, 0}}) {
		t.Fatalf("oracle empty scalar aggregate = %v, want one row of zeros", want)
	}
	for _, tc := range []struct {
		name   string
		comp   *Compiler
		fused  bool
		budget bool
	}{
		{"serial", &Compiler{Q: q, Cat: cat}, false, false},
		{"fused", &Compiler{Q: q, Cat: cat, Parallelism: 4}, true, false},
		{"spill", &Compiler{Q: q, Cat: cat, Parallelism: 4, MemBudgetBytes: tightBudget}, false, true},
	} {
		if tc.fused {
			v, _, err := (&Compiler{Q: q, Cat: cat, Parallelism: 4}).CompileVec(vr.Plan)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := v.(*parallelPipelineOp); !ok {
				t.Fatalf("%s: root is %T, want a fused pipeline\n%s", tc.name, v, vr.Plan.Explain(q))
			}
		}
		checkOracle(t, tc.name, tc.comp, vr.Plan, o)
		if tc.budget && !tc.comp.Mem.Bounded() {
			t.Fatalf("%s: execution was not memory-bounded", tc.name)
		}
	}
}
