package bench

import (
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/relalg"
	"repro/internal/tpch"
	"repro/internal/volcano"
)

// MemoryFigure measures memory-bounded execution on the benchmark queries:
// each query runs once unbounded (tracked, not limited) to establish its
// peak memory, then again under a budget of a quarter of that peak, forcing
// the hash joins and aggregations through the grace-hash spill path. The
// table reports the tracked peak, the spill volume (partition files, bytes,
// recursive repartitions) and the wall-time cost of going out of core.
// Results and cardinality feedback are byte-identical between the two runs
// by construction (asserted by the differential tests in internal/exec);
// the row counts are cross-checked here anyway.
func (e *Env) MemoryFigure() *Table {
	par := e.Parallelism
	if par < 1 {
		par = 1
	}
	t := &Table{
		Title:  fmt.Sprintf("Memory-bounded execution: unbounded vs budgeted peak and spill volume (parallelism %d)", par),
		Header: []string{"query", "budget", "peak-bytes", "overage", "spill-parts", "spill-bytes", "recursions", "rows", "min-time"},
	}
	const minBudget = 64 << 10
	for _, q := range []*relalg.Query{tpch.Q1(), tpch.Q3S(), tpch.Q5(), tpch.Q10()} {
		vr, err := volcano.Optimize(e.Model(q), e.Space)
		if err != nil {
			panic(fmt.Sprintf("bench: %s: %v", q.Name, err))
		}
		run := func(budget int64) (*exec.MemTracker, int64, time.Duration) {
			var mem *exec.MemTracker
			var rows int64
			d := e.timeIt(func() {
				// A compiler carrying a tracker is single-execution, so
				// each repetition compiles fresh.
				mem = exec.NewMemTracker(budget)
				comp := &exec.Compiler{Q: q, Cat: e.Cat, Parallelism: e.Parallelism,
					MemBudgetBytes: budget, Mem: mem}
				v, _, err := comp.CompileVec(vr.Plan)
				if err != nil {
					panic(fmt.Sprintf("bench: %s: %v", q.Name, err))
				}
				n, err := exec.CountVec(v)
				if err != nil {
					panic(fmt.Sprintf("bench: %s: %v", q.Name, err))
				}
				rows = n
			})
			return mem, rows, d
		}
		free, freeRows, freeTime := run(0)
		budget := free.Peak() / 4
		if budget < minBudget {
			budget = minBudget
		}
		bounded, boundedRows, boundedTime := run(budget)
		if boundedRows != freeRows {
			panic(fmt.Sprintf("bench: %s: budgeted run returned %d rows, unbounded %d",
				q.Name, boundedRows, freeRows))
		}
		t.Rows = append(t.Rows, []string{q.Name, "unbounded",
			fmt.Sprint(free.Peak()), "0", "0", "0", "0",
			fmt.Sprint(freeRows), freeTime.String()})
		parts, bytes, recs := bounded.SpillStats()
		t.Rows = append(t.Rows, []string{q.Name, fmt.Sprint(budget),
			fmt.Sprint(bounded.Peak()), fmt.Sprint(bounded.Overage()),
			fmt.Sprint(parts), fmt.Sprint(bytes), fmt.Sprint(recs),
			fmt.Sprint(boundedRows), boundedTime.String()})
	}
	t.Notes = append(t.Notes,
		"budget = unbounded peak / 4 (min 64KiB); overage = bytes Force-charged past the budget by non-spillable operators",
		"peak-bytes <= budget whenever overage is 0: the spill path keeps tracked memory under the bound")
	return t
}
