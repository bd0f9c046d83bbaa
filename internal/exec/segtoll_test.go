package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/linearroad"
	"repro/internal/relalg"
	"repro/internal/testkit"
	"repro/internal/tpch"
	"repro/internal/volcano"
)

// randomPlan builds a random valid physical plan over the relations in s:
// a random split into two connected halves with a crossing join predicate,
// joined by a hash join, a merge join over sort enforcers, or — when the
// left half is a single relation — an index nested-loops join probing it.
func randomPlan(r *rand.Rand, q *relalg.Query, s relalg.RelSet) *relalg.Plan {
	if s.IsSingle() {
		return &relalg.Plan{Expr: s, Log: relalg.LogScan, Phy: relalg.PhyTableScan, Rel: s.SingleMember()}
	}
	var splits []relalg.RelSet
	s.ProperSubsets(func(l relalg.RelSet) {
		rest := s.Without(l)
		if q.Connected(l) && q.Connected(rest) && len(q.CrossPreds(l, rest)) > 0 {
			splits = append(splits, l)
		}
	})
	l := splits[r.Intn(len(splits))]
	rest := s.Without(l)
	cross := q.CrossPreds(l, rest)
	p := &relalg.Plan{Expr: s, Log: relalg.LogJoin, Pred: cross[r.Intn(len(cross))]}
	lcol, rcol := q.Joins[p.Pred].L, q.Joins[p.Pred].R
	if !l.Has(lcol.Rel) {
		lcol, rcol = rcol, lcol
	}
	sorted := func(c *relalg.Plan, col relalg.ColID) *relalg.Plan {
		return &relalg.Plan{Expr: c.Expr, Prop: relalg.Sorted(col), Log: relalg.LogEnforce,
			Phy: relalg.PhySort, Left: c}
	}
	switch k := r.Intn(3); {
	case k == 0 && l.IsSingle():
		p.Phy = relalg.PhyIndexNLJoin
		p.Left = &relalg.Plan{Expr: l, Prop: relalg.Indexed(lcol), Log: relalg.LogScan,
			Phy: relalg.PhyIndexScan, Rel: lcol.Rel, IdxCol: lcol}
		p.Right = randomPlan(r, q, rest)
	case k == 1:
		p.Phy = relalg.PhyMergeJoin
		p.Left = sorted(randomPlan(r, q, l), lcol)
		p.Right = sorted(randomPlan(r, q, rest), rcol)
	default:
		p.Phy = relalg.PhyHashJoin
		p.Left, p.Right = randomPlan(r, q, l), randomPlan(r, q, rest)
	}
	return p
}

// TestSegTollSOracleDifferential executes the Linear Road SegTollS query —
// the stream loop's join → COUNT(DISTINCT) aggregate — over the windows at
// several stream points, with the optimizer's best plan, its worst plan and
// random valid plans (hash, merge and index nested-loops joins) at P ∈
// {1,4}, and holds the result multiset and every RunStats entry against
// testkit.Oracle.
func TestSegTollSOracleDifferential(t *testing.T) {
	q := linearroad.SegTollS()
	gen := linearroad.NewGen(3, 100)
	// A 600 s r1 window grows past minParallelRows by the later points, so
	// P=4 also runs fused pipelines and parallel scans over it.
	win := linearroad.NewWindowsSpans(600, 30)
	var next int64
	for _, point := range []int64{100, 300, 500} {
		for ; next < point; next++ {
			win.Ingest(gen.Slice(next, next+1))
		}
		win.Materialize()
		cat := win.Catalog()
		o, err := testkit.NewOracle(q, cat)
		if err != nil {
			t.Fatal(err)
		}
		if len(o.Rows()) == 0 {
			t.Fatalf("stream point %d: SegTollS has no groups; the check would be vacuous", point)
		}
		m, err := cost.NewModel(q, cat, cost.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		opt, err := core.New(m, relalg.DefaultSpace(), core.PruneNone)
		if err != nil {
			t.Fatal(err)
		}
		best, err := opt.Optimize()
		if err != nil {
			t.Fatal(err)
		}
		worst, err := opt.WorstPlan()
		if err != nil {
			t.Fatal(err)
		}
		plans := []*relalg.Plan{best, worst}
		r := rand.New(rand.NewSource(point))
		for i := 0; i < 3; i++ {
			plans = append(plans, randomPlan(r, q, q.AllRels()))
		}
		for pi, plan := range plans {
			for _, par := range []int{1, 4} {
				comp := &Compiler{Q: q, Cat: cat, Data: win.Data, Parallelism: par}
				checkOracle(t, fmt.Sprintf("point %d plan %d par %d", point, pi, par), comp, plan, o)
			}
		}
	}
}

// fusedPipelines returns the fused pipelines in an operator tree.
func fusedPipelines(v VecIterator) []*parallelPipelineOp {
	switch op := v.(type) {
	case *parallelPipelineOp:
		return []*parallelPipelineOp{op}
	case *vecCounterOp:
		return fusedPipelines(op.in)
	case *vecSortOp:
		return fusedPipelines(op.in)
	case *vecHashJoinOp:
		return append(fusedPipelines(op.left), fusedPipelines(op.right)...)
	case *vecMergeJoinOp:
		return append(fusedPipelines(op.left), fusedPipelines(op.right)...)
	case *vecIndexNLOp:
		return fusedPipelines(op.outer)
	}
	return nil
}

// drainRoot compiles plan's operator tree below the aggregation, as
// CompileVec would, and returns the tree's output schema, its rows, and
// the fused pipelines in it.
func drainRoot(t *testing.T, comp *Compiler, plan *relalg.Plan) ([]relalg.ColID, []Row, []*parallelPipelineOp) {
	t.Helper()
	v, schema, err := comp.compileVec(plan, &RunStats{Cards: map[relalg.RelSet]*int64{}}, comp.rootNeed())
	if err != nil {
		t.Fatal(err)
	}
	fused := fusedPipelines(v)
	out, err := DrainVec(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("plan produced no rows; the width check would be vacuous")
	}
	for _, row := range out {
		if len(row) != len(schema) {
			t.Fatalf("row width %d, schema width %d", len(row), len(schema))
		}
	}
	return schema, out, fused
}

// TestJoinOutputPruning checks what joins emit. Under SegTollS's
// aggregation the top join emits only the four columns the aggregate reads
// (r2's expway, dir and seg, r5's xpos), serially and at P=4, where a
// 600 s r1 window makes (r1 ⋈ r2) a fused pipeline that emits only r2's
// expway, dir and seg. A non-aggregate query (Q3S) keeps its full output
// width and column order.
func TestJoinOutputPruning(t *testing.T) {
	gen := linearroad.NewGen(3, 100)
	win := linearroad.NewWindowsSpans(600, 30)
	for s := int64(0); s < 300; s++ {
		win.Ingest(gen.Slice(s, s+1))
	}
	win.Materialize()
	q := linearroad.SegTollS()
	m, err := cost.NewModel(q, win.Catalog(), cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	opt, err := core.New(m, relalg.DefaultSpace(), core.PruneNone)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := opt.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Log != relalg.LogJoin {
		t.Fatalf("SegTollS plan root is not a join:\n%s", plan.Explain(q))
	}
	col := func(rel, off int) relalg.ColID { return relalg.ColID{Rel: rel, Off: off} }
	want := []relalg.ColID{col(1, linearroad.ColExpway), col(1, linearroad.ColDir),
		col(1, linearroad.ColSeg), col(4, linearroad.ColXPos)}
	for _, par := range []int{1, 4} {
		comp := &Compiler{Q: q, Cat: win.Catalog(), Data: win.Data, Parallelism: par}
		schema, _, fused := drainRoot(t, comp, plan)
		if par > 1 {
			if len(fused) != 1 {
				t.Fatalf("par %d: %d fused pipelines, want 1\n%s", par, len(fused), plan.Explain(q))
			}
			last := fused[0].stages[len(fused[0].stages)-1]
			if w := len(last.outB) + len(last.outP); w != 3 {
				t.Fatalf("par %d: fused pipeline emits %d columns, want r2's expway, dir and seg\n%s",
					par, w, plan.Explain(q))
			}
		}
		got := slices.Clone(schema)
		slices.SortFunc(got, func(a, b relalg.ColID) int {
			if a.Rel != b.Rel {
				return a.Rel - b.Rel
			}
			return a.Off - b.Off
		})
		if !slices.Equal(got, want) {
			t.Fatalf("par %d: SegTollS top join emits %v, want only %v\n%s", par, schema, want, plan.Explain(q))
		}
	}

	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 7})
	q3 := tpch.Q3S()
	m3, err := cost.NewModel(q3, cat, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	vr, err := volcano.Optimize(m3, relalg.DefaultSpace())
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		comp := &Compiler{Q: q3, Cat: cat, Parallelism: par}
		full, err := comp.PlanSchema(vr.Plan)
		if err != nil {
			t.Fatal(err)
		}
		schema, _, _ := drainRoot(t, comp, vr.Plan)
		if !slices.Equal(schema, full) {
			t.Fatalf("par %d: Q3S output schema %v, want the full plan schema %v", par, schema, full)
		}
	}
}
