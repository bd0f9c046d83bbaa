package exec

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/relalg"
	"repro/internal/sqlmini"
	"repro/internal/testkit"
	"repro/internal/tpch"
)

// indexNLFixture plans a five-way TPC-H join whose optimal plan probes
// partsupp through its ps_partkey index, with a pushed-down condition on
// the probed inner. It returns the query, the plan and the plan's index-NL
// node.
func indexNLFixture(t *testing.T, cat *catalog.Catalog) (*relalg.Query, *relalg.Plan, *relalg.Plan) {
	t.Helper()
	q, err := sqlmini.Parse(`SELECT COUNT(*) FROM region r, nation n, supplier s, partsupp ps, part p
WHERE r.r_regionkey = n.n_regionkey AND n.n_nationkey = s.s_nationkey
AND s.s_suppkey = ps.ps_suppkey AND ps.ps_partkey = p.p_partkey
AND p.p_partkey = 77 AND ps.ps_availqty > 5000`, cat, sqlmini.Options{Dict: tpch.Dict(), Date: tpch.Date})
	if err != nil {
		t.Fatal(err)
	}
	m, err := cost.NewModel(q, cat, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	opt, err := core.New(m, relalg.DefaultSpace(), core.PruneAll)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := opt.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	var find func(p *relalg.Plan) *relalg.Plan
	find = func(p *relalg.Plan) *relalg.Plan {
		if p == nil || p.Phy == relalg.PhyIndexNLJoin {
			return p
		}
		if n := find(p.Left); n != nil {
			return n
		}
		return find(p.Right)
	}
	node := find(plan)
	if node == nil {
		t.Fatalf("plan has no index-NL join:\n%s", plan.Explain(q))
	}
	return q, plan, node
}

// compiledIndexNL compiles just the index-NL node and returns its operator.
func compiledIndexNL(t *testing.T, comp *Compiler, node *relalg.Plan) *vecIndexNLOp {
	t.Helper()
	v, _, err := comp.compileVec(node, &RunStats{Cards: map[relalg.RelSet]*int64{}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return v.(*vecCounterOp).in.(*vecIndexNLOp)
}

// TestIndexNLSharesSnapshotIndex asserts that executions over an unchanged
// table probe one shared index, owned by the table's storage snapshot, and
// read the inner columns from that same snapshot.
func TestIndexNLSharesSnapshotIndex(t *testing.T) {
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 7})
	q, plan, node := indexNLFixture(t, cat)
	a := compiledIndexNL(t, &Compiler{Q: q, Cat: cat}, node)
	b := compiledIndexNL(t, &Compiler{Q: q, Cat: cat, Parallelism: 4}, node)
	if a.index != b.index {
		t.Fatal("two executions over one snapshot built two indexes")
	}
	snap := cat.MustTable("partsupp").Snapshot()
	if a.index != snap.Index(cat.MustTable("partsupp").MustCol("ps_partkey")) {
		t.Fatal("the executor's index is not the snapshot's")
	}
	if &a.inner.cols[0][0] != &snap.Cols[0][0] || a.inner.n != snap.N {
		t.Fatal("the inner columns are not the snapshot the index was built over")
	}
	o, err := testkit.NewOracle(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, "shared", &Compiler{Q: q, Cat: cat}, plan, o)
}

// TestIndexNLSeesAppendedRows appends inner rows — one passing the inner's
// pushed-down condition, one failing it — and holds the next execution
// against the oracle: the new snapshot's index must serve the new row.
func TestIndexNLSeesAppendedRows(t *testing.T) {
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 7})
	q, plan, node := indexNLFixture(t, cat)
	before := compiledIndexNL(t, &Compiler{Q: q, Cat: cat}, node)
	o, err := testkit.NewOracle(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	count := o.Rows()[0][0]

	ps := cat.MustTable("partsupp")
	if err := ps.AppendRows([][]int64{{77, 0, 9000}, {77, 1, 10}}); err != nil {
		t.Fatal(err)
	}
	after := compiledIndexNL(t, &Compiler{Q: q, Cat: cat}, node)
	if after.index == before.index {
		t.Fatal("an append kept serving the previous snapshot's index")
	}
	if got := len(before.index.Lookup(77)); got != 4 {
		t.Fatalf("the previous index changed: %d rows for key 77, want 4", got)
	}
	o, err = testkit.NewOracle(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	if got := o.Rows()[0][0]; got != count+1 {
		t.Fatalf("oracle count %d after the append, want %d", got, count+1)
	}
	for _, par := range []int{1, 4} {
		checkOracle(t, fmt.Sprintf("after append par %d", par), &Compiler{Q: q, Cat: cat, Parallelism: par}, plan, o)
	}
	// A Data-overridden execution indexes the supplied rows itself.
	data := func(rel int) [][]int64 { return cat.MustTable(q.Rels[rel].Table).Rows }
	checkOracle(t, "data override", &Compiler{Q: q, Cat: cat, Data: data}, plan, o)
}

// TestIndexNLConcurrentExecutions races eight executions of one index-NL
// plan over a table whose index is not built yet: the concurrent first
// callers must share one build and every result must equal the oracle's.
func TestIndexNLConcurrentExecutions(t *testing.T) {
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 7})
	q, plan, _ := indexNLFixture(t, cat)
	o, err := testkit.NewOracle(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	want := rowMultiset(o.Rows())
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v, _, err := (&Compiler{Q: q, Cat: cat, Parallelism: 1 + g%2}).CompileVec(plan)
			if err != nil {
				errs <- err
				return
			}
			rows, err := DrainVec(v)
			if err != nil {
				errs <- err
				return
			}
			if got := rowMultiset(rows); got != want {
				errs <- fmt.Errorf("goroutine %d: result %q, oracle %q", g, got, want)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
