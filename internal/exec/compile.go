package exec

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/relalg"
	"repro/internal/rescache"
)

// RunStats accumulates actual output cardinalities per subexpression during
// execution. The adaptive layer compares them with the optimizer's
// estimates and feeds the ratios back as cardinality updates.
type RunStats struct {
	Cards map[relalg.RelSet]*int64
}

// Card returns the observed cardinality of a subexpression.
func (s *RunStats) Card(set relalg.RelSet) (int64, bool) {
	if p, ok := s.Cards[set]; ok {
		return *p, true
	}
	return 0, false
}

// counter returns the accumulator for a subexpression, creating it when
// first requested.
func (s *RunStats) counter(set relalg.RelSet) *int64 {
	n, ok := s.Cards[set]
	if !ok {
		n = new(int64)
		s.Cards[set] = n
	}
	return n
}

// Snapshot copies the observed cardinalities into a plain map — the handoff
// from one finished execution to the feedback consumer (the adaptive loop or
// the serving layer's shared stats store). It must only be called after the
// operator tree has been drained and closed: parallel operators merge their
// per-worker counters at pipeline end, so earlier reads would race.
func (s *RunStats) Snapshot() map[relalg.RelSet]int64 {
	out := make(map[relalg.RelSet]int64, len(s.Cards))
	for set, n := range s.Cards {
		out[set] = *n
	}
	return out
}

// Compiler turns a physical plan into an operator tree over concrete data.
type Compiler struct {
	Q   *relalg.Query
	Cat *catalog.Catalog
	// Data overrides the row source per query relation; when nil (or when
	// it returns nil) the catalog table's rows are used. The stream layer
	// uses this to execute over window buffers.
	Data func(rel int) [][]int64
	// Parallelism caps the number of workers of morsel-driven parallel
	// execution; values <= 1 execute serially. Right-spine hash-join
	// chains over a large unsorted leaf scan fuse into full parallel
	// pipelines (scan → probe cascade → worker-local aggregation, see
	// pipeline.go); remaining large leaf scans fan out individually.
	// Per-operator cardinality counters stay exact either way (fused
	// pipelines merge per-worker counters, exchange scans count above the
	// exchange), so RunStats feedback into the adaptive layer is
	// unaffected.
	Parallelism int
	// Cache, when enabled, is the server-wide semantic result cache, and
	// CacheCands the plan's cacheable subtrees (BuildCacheCandidates on
	// THIS plan tree — candidates match by node identity). CompileVec
	// resolves them into probe hits (subtree replaced by a cached scan) or
	// spools (subtree teed into the cache); see rescache.go.
	// Data-overridden compilations ignore both.
	Cache      *rescache.Cache
	CacheCands []CacheCandidate
	// Prof, when non-nil, collects a per-operator execution profile for
	// EXPLAIN ANALYZE: every compiled operator is wrapped in a timing shim
	// recording batches/rows/wall time per plan node (fused pipelines
	// register per-stage spans instead; see profile.go). Nil — the default
	// — compiles exactly the unprofiled operator tree.
	Prof *PlanProfile
	// MemBudgetBytes bounds the query's tracked execution memory. When > 0
	// and Mem is nil, CompileVec creates the tracker; operators that can go
	// out of core (hash join build, hash aggregation) spill under grace
	// hashing instead of exceeding the budget, operators that cannot (sorts,
	// merge joins, index builds, fused pipelines admitted by the planner's
	// size estimate) charge through and record overage. 0 keeps today's
	// unbounded execution paths exactly.
	MemBudgetBytes int64
	// Mem is the query's memory tracker. Callers either pass one in (the
	// server, to read back peak and spill statistics) or leave it nil and
	// set MemBudgetBytes. A Compiler carrying a tracker is single-execution:
	// reusing it across queries would accumulate charges.
	Mem *MemTracker
	// SpillDir is the directory spill partition files are created in when
	// out-of-core operators go to disk ("" = system temp directory). A
	// write failure there (disk full, bad mount) surfaces as the query's
	// error; the partition files themselves are unlinked at creation, so
	// nothing leaks even on abrupt failure.
	SpillDir string
	// decisions maps plan nodes to their resolved cache decision for the
	// current CompileVec call.
	decisions map[*relalg.Plan]*cacheDecision
}

// CompileVec builds the vectorized (batch-at-a-time) operator tree for
// plan, wiring a cardinality counter onto every scan and join subexpression
// and applying the query's aggregation (if any) on top. It returns the root
// operator and the stats collector.
func (c *Compiler) CompileVec(plan *relalg.Plan) (VecIterator, *RunStats, error) {
	stats := &RunStats{Cards: map[relalg.RelSet]*int64{}}
	c.resolveCache()
	if c.Mem == nil && c.MemBudgetBytes > 0 {
		c.Mem = NewMemTracker(c.MemBudgetBytes)
	}
	if c.SpillDir != "" {
		c.Mem.SetSpillDir(c.SpillDir)
	}
	if c.Prof != nil {
		c.Prof.workers = c.Parallelism
	}
	// Full-pipeline fusion at the root: when the query aggregates, the
	// fused pipeline's terminal becomes worker-local partial aggregation
	// (even for a bare scan plan, the Q1/Q6 shape), so no exchange or
	// shared aggregation state sits on the per-row path. Under a memory
	// budget the aggregation must stay spillable, so the root terminal
	// falls back to the serial spill-capable operator over the (possibly
	// still fused, estimate-admitted) join pipeline below.
	if c.Parallelism > 1 && !(c.Q.Agg != nil && c.Mem.Bounded()) {
		minStages := 1
		if c.Q.Agg != nil {
			minStages = 0
		}
		op, schema, ok, err := c.compilePipeline(plan, stats, minStages)
		if err != nil {
			return nil, nil, err
		}
		if ok {
			if c.Q.Agg != nil {
				spec, err := c.aggSpec(schema)
				if err != nil {
					return nil, nil, err
				}
				op.fuseAgg(spec)
				if op.prof != nil {
					// The fused aggregation is the pipeline's terminal:
					// its time comes from the workers' terminal clock
					// slot, self-time like the other stages.
					c.Prof.Agg.Self = true
					op.prof.term = c.Prof.Agg
				}
			}
			return op, stats, nil
		}
	}
	v, schema, err := c.compileVec(plan, stats)
	if err != nil {
		return nil, nil, err
	}
	if c.Q.Agg != nil {
		spec, err := c.aggSpec(schema)
		if err != nil {
			return nil, nil, err
		}
		v = NewVecHashAgg(v, spec)
		if ha, ok := v.(*vecHashAggOp); ok {
			ha.mem = c.Mem.Child("agg")
		}
		if c.Prof != nil {
			v = &profVec{in: v, sp: c.Prof.Agg}
		}
	}
	return v, stats, nil
}

// aggSpec resolves the query's aggregation columns against the plan root's
// output schema.
func (c *Compiler) aggSpec(schema []relalg.ColID) (AggSpecExec, error) {
	spec := AggSpecExec{CountAll: c.Q.Agg.CountAll}
	for _, col := range c.Q.Agg.GroupBy {
		off, err := colOffset(schema, col)
		if err != nil {
			return spec, err
		}
		spec.GroupBy = append(spec.GroupBy, off)
	}
	for _, col := range c.Q.Agg.Sums {
		off, err := colOffset(schema, col)
		if err != nil {
			return spec, err
		}
		spec.Sums = append(spec.Sums, off)
	}
	for _, col := range c.Q.Agg.CountDistinct {
		off, err := colOffset(schema, col)
		if err != nil {
			return spec, err
		}
		spec.CountDistinct = append(spec.CountDistinct, off)
	}
	return spec, nil
}

func (c *Compiler) tableArity(rel int) (int, error) {
	t, err := c.Cat.Table(c.Q.Rels[rel].Table)
	if err != nil {
		return 0, err
	}
	return len(t.ColNames), nil
}

// cols returns the column-major data of a query relation: the catalog
// table's zero-copy column mirror, or — for Data-overridden relations (the
// stream layer's window buffers) — a one-time transposition of the override
// rows.
func (c *Compiler) cols(rel int) (colData, error) {
	t, err := c.Cat.Table(c.Q.Rels[rel].Table)
	if err != nil {
		return colData{}, err
	}
	if c.Data != nil {
		if rows := c.Data(rel); rows != nil {
			return transposeRows(rows, len(t.ColNames)), nil
		}
	}
	// ColumnSnapshot returns a consistent (columns, row count) pair from
	// the storage backend's atomically published snapshot, so compiling
	// concurrently with appends can never pair fresh columns with a stale
	// count (or vice versa).
	cols, n := t.ColumnSnapshot()
	return colData{cols: cols, n: n}, nil
}

// compileVec compiles one plan node via compileVecNode and — when
// profiling — wraps the result in the timing shim for that node. Fused
// pipelines are exempt: they register their own per-stage spans.
func (c *Compiler) compileVec(p *relalg.Plan, stats *RunStats) (VecIterator, []relalg.ColID, error) {
	v, schema, err := c.compileVecNode(p, stats)
	if err != nil || c.Prof == nil {
		return v, schema, err
	}
	if _, fused := v.(*parallelPipelineOp); fused {
		return v, schema, nil
	}
	return &profVec{in: v, sp: c.Prof.span(p)}, schema, nil
}

// compileVecNode compiles one plan node and returns the operator and its
// output schema (the ColID of every output column, in order).
func (c *Compiler) compileVecNode(p *relalg.Plan, stats *RunStats) (VecIterator, []relalg.ColID, error) {
	if d := c.takeDecision(p); d != nil {
		return c.applyCacheDecision(d, p, stats)
	}
	switch p.Log {
	case relalg.LogScan:
		data, err := c.cols(p.Rel)
		if err != nil {
			return nil, nil, err
		}
		arity, err := c.tableArity(p.Rel)
		if err != nil {
			return nil, nil, err
		}
		schema := make([]relalg.ColID, arity)
		for i := range schema {
			schema[i] = relalg.ColID{Rel: p.Rel, Off: i}
		}
		conds, err := c.scanConds(p.Rel, schema)
		if err != nil {
			return nil, nil, err
		}
		var v VecIterator
		if p.Phy == relalg.PhySegScan && c.Data == nil {
			// Segment-pruned access path: scan through the storage
			// backend, which skips segments whose zone maps exclude the
			// pushed-down conditions. Data-overridden relations (stream
			// windows) have no backend and fall through to the plain scan.
			t, err := c.Cat.Table(c.Q.Rels[p.Rel].Table)
			if err != nil {
				return nil, nil, err
			}
			v = newStorageScan(t.Store(), storagePreds(conds), ScanFilter{Conds: conds})
		} else {
			v = c.scanVec(data, ScanFilter{Conds: conds})
		}
		if p.Prop.Kind == relalg.PropSorted {
			off, err := colOffset(schema, p.Prop.Col)
			if err != nil {
				return nil, nil, err
			}
			v = c.trackedSort(v, off)
		} else if p.Phy == relalg.PhyIndexScan {
			off, err := colOffset(schema, p.IdxCol)
			if err != nil {
				return nil, nil, err
			}
			v = c.trackedSort(v, off)
		}
		return c.countedVec(v, p.Expr, stats), schema, nil

	case relalg.LogEnforce:
		child, schema, err := c.compileVec(p.Left, stats)
		if err != nil {
			return nil, nil, err
		}
		off, err := colOffset(schema, p.Prop.Col)
		if err != nil {
			return nil, nil, err
		}
		return c.trackedSort(child, off), schema, nil

	case relalg.LogJoin:
		jp := c.Q.Joins[p.Pred]
		if p.Phy == relalg.PhyIndexNLJoin {
			return c.compileVecIndexNL(p, jp, stats)
		}
		if p.Phy == relalg.PhyHashJoin {
			// Fuse an interior hash-join chain (e.g. a build-side
			// subtree) into a collect-mode parallel pipeline.
			op, schema, ok, err := c.compilePipeline(p, stats, 1)
			if err != nil {
				return nil, nil, err
			}
			if ok {
				return op, schema, nil
			}
		}
		left, ls, err := c.compileVec(p.Left, stats)
		if err != nil {
			return nil, nil, err
		}
		right, rs, err := c.compileVec(p.Right, stats)
		if err != nil {
			return nil, nil, err
		}
		schema := append(append([]relalg.ColID(nil), ls...), rs...)
		lk, rk, err := c.joinOffsets(p, jp, ls, rs)
		if err != nil {
			return nil, nil, err
		}
		var v VecIterator
		switch p.Phy {
		case relalg.PhyHashJoin:
			lKeys, rKeys, err := c.hashJoinKeys(p, ls, rs, lk, rk)
			if err != nil {
				return nil, nil, err
			}
			residual, err := c.colFilterPredsOnly(p, schema)
			if err != nil {
				return nil, nil, err
			}
			v = NewVecHashJoin(left, right, lKeys, rKeys, residual, c.Parallelism)
			if hj, ok := v.(*vecHashJoinOp); ok {
				hj.mem = c.Mem.Child("hashjoin")
			}
		case relalg.PhyMergeJoin:
			residual, err := c.colResidualPreds(p, schema)
			if err != nil {
				return nil, nil, err
			}
			v = NewVecMergeJoin(left, right, lk, rk, residual)
			if mj, ok := v.(*vecMergeJoinOp); ok {
				mj.mem = c.Mem.Child("mergejoin")
			}
		default:
			return nil, nil, fmt.Errorf("exec: unexpected join operator %v", p.Phy)
		}
		return c.countedVec(v, p.Expr, stats), schema, nil
	}
	return nil, nil, fmt.Errorf("exec: unknown logical operator %v", p.Log)
}

func (c *Compiler) compileVecIndexNL(p *relalg.Plan, jp relalg.JoinPred, stats *RunStats) (VecIterator, []relalg.ColID, error) {
	inner := p.Left.Expr.SingleMember()
	innerArity, err := c.tableArity(inner)
	if err != nil {
		return nil, nil, err
	}
	innerSchema := make([]relalg.ColID, innerArity)
	for i := range innerSchema {
		innerSchema[i] = relalg.ColID{Rel: inner, Off: i}
	}
	innerData, err := c.cols(inner)
	if err != nil {
		return nil, nil, err
	}
	innerConds, err := c.scanConds(inner, innerSchema)
	if err != nil {
		return nil, nil, err
	}
	innerCol, outerCol := jp.L, jp.R
	if innerCol.Rel != inner {
		innerCol, outerCol = outerCol, innerCol
	}
	index := buildColIndex(innerData, innerCol.Off, ScanFilter{Conds: innerConds})
	// The index map (per-key row-id slices + bucket overhead) has no
	// out-of-core fallback; the base column data it points into is the
	// catalog's untracked mirror.
	c.Mem.Force(int64(innerData.n) * 40)

	outer, os, err := c.compileVec(p.Right, stats)
	if err != nil {
		return nil, nil, err
	}
	ok, err := colOffset(os, outerCol)
	if err != nil {
		return nil, nil, err
	}
	schema := append(append([]relalg.ColID(nil), innerSchema...), os...)
	residual, err := c.colResidualPreds(p, schema)
	if err != nil {
		return nil, nil, err
	}
	v := NewVecIndexNLJoin(outer, index, ok, residual)
	return c.countedVec(v, p.Expr, stats), schema, nil
}

// compilePipeline tries to fuse the subtree rooted at p into one
// parallelPipelineOp: a right-spine chain of at least minStages hash joins
// (possibly zero, for bare scan+agg plans) over a large unsorted leaf scan.
// Each stage's build side is compiled with the regular vectorized compiler
// (and may itself fuse recursively), drained at Open, and probed by every
// pipeline worker against the shared immutable table. The op registers the
// cardinality counters of every fused expression itself — the scan and each
// join — merging exact per-worker counts, so it must not be wrapped in
// countedVec. Returns ok=false when the shape doesn't match or the scan is
// too small to pay for workers; the caller falls back to the exchange-based
// operators.
func (c *Compiler) compilePipeline(p *relalg.Plan, stats *RunStats, minStages int) (*parallelPipelineOp, []relalg.ColID, bool, error) {
	if c.Parallelism <= 1 {
		return nil, nil, false, nil
	}
	if c.decisionWithin(p) {
		// A probe or spool targets a node inside this subtree; fusing it
		// into one operator would silently skip the cache. Fall back to
		// the plain operator tree, where compileVec honors the decision.
		return nil, nil, false, nil
	}
	var spine []*relalg.Plan
	cur := p
	for cur.Log == relalg.LogJoin && cur.Phy == relalg.PhyHashJoin {
		spine = append(spine, cur)
		cur = cur.Right
	}
	if len(spine) < minStages {
		return nil, nil, false, nil
	}
	if cur.Log != relalg.LogScan || cur.Prop.Kind == relalg.PropSorted ||
		cur.Phy == relalg.PhyIndexScan || cur.Phy == relalg.PhySegScan {
		return nil, nil, false, nil
	}
	data, err := c.cols(cur.Rel)
	if err != nil {
		return nil, nil, false, err
	}
	if data.n < minParallelRows {
		return nil, nil, false, nil
	}
	arity, err := c.tableArity(cur.Rel)
	if err != nil {
		return nil, nil, false, err
	}
	schema := make([]relalg.ColID, arity)
	for i := range schema {
		schema[i] = relalg.ColID{Rel: cur.Rel, Off: i}
	}
	conds, err := c.scanConds(cur.Rel, schema)
	if err != nil {
		return nil, nil, false, err
	}
	scanCard := stats.counter(cur.Expr)

	// Under a memory budget, fusion is admission-gated: the fused pipeline
	// Force-charges its build tables (it cannot spill them), so it is only
	// used when the optimizer's cardinality estimates put the combined build
	// footprint within half the budget. The check runs before any build
	// subtree is compiled — bailing later would leave counters and cache
	// decisions half-registered. Misestimates surface as tracked overage.
	if c.Mem.Bounded() {
		var est int64
		for _, pj := range spine {
			width := 0
			for rel := range c.Q.Rels {
				if pj.Left.Expr.Has(rel) {
					arity, err := c.tableArity(rel)
					if err != nil {
						return nil, nil, false, err
					}
					width += arity
				}
			}
			rows := int64(pj.Left.Card)
			est += colBytes(width, int(rows)) + joinTableBytes(int(rows))
		}
		if est > c.Mem.Limit()/2 {
			return nil, nil, false, nil
		}
	}

	// Stages assemble bottom-up: the innermost join of the spine is probed
	// first, and each stage's output schema (build ++ probe) is the next
	// stage's probe schema — exactly the schema the unfused operator tree
	// would produce.
	stages := make([]*pipeStage, 0, len(spine))
	for i := len(spine) - 1; i >= 0; i-- {
		pj := spine[i]
		jp := c.Q.Joins[pj.Pred]
		build, ls, err := c.compileVec(pj.Left, stats)
		if err != nil {
			return nil, nil, false, err
		}
		lk, rk, err := c.joinOffsets(pj, jp, ls, schema)
		if err != nil {
			return nil, nil, false, err
		}
		lKeys, rKeys, err := c.hashJoinKeys(pj, ls, schema, lk, rk)
		if err != nil {
			return nil, nil, false, err
		}
		schema = append(append([]relalg.ColID(nil), ls...), schema...)
		residual, err := c.colFilterPredsOnly(pj, schema)
		if err != nil {
			return nil, nil, false, err
		}
		stages = append(stages, &pipeStage{build: build, buildKeys: lKeys,
			probeKeys: rKeys, residual: residual, card: stats.counter(pj.Expr)})
	}
	op := newParallelPipeline(data, ScanFilter{Conds: conds}, scanCard, stages, c.Parallelism)
	op.mem = c.Mem.Child("pipeline")
	if c.Prof != nil {
		// Register self-time spans for every fused node: stages[j] probes
		// spine[len-1-j] (the stage list assembles bottom-up), and the
		// scan span belongs to the leaf. Build subtrees were compiled via
		// compileVec above and carry their own inclusive shims.
		pr := &pipeProf{scan: c.Prof.selfSpan(cur), stages: make([]*obs.Span, len(stages))}
		for j := range stages {
			pr.stages[j] = c.Prof.selfSpan(spine[len(spine)-1-j])
		}
		op.prof = pr
	}
	return op, schema, true, nil
}

// scanVec picks the leaf scan implementation: morsel-driven parallel when
// the Parallelism option allows it and the table is large enough to pay for
// worker startup, serial otherwise.
func (c *Compiler) scanVec(data colData, filter ScanFilter) VecIterator {
	if c.Parallelism > 1 && data.n >= minParallelRows {
		return NewParallelScan(data.cols, data.n, filter, c.Parallelism)
	}
	return NewVecScan(data.cols, data.n, filter)
}

func (c *Compiler) countedVec(v VecIterator, set relalg.RelSet, stats *RunStats) VecIterator {
	return NewVecCounter(v, stats.counter(set))
}

// trackedSort builds a sort operator with its memory child tracker attached.
func (c *Compiler) trackedSort(in VecIterator, col int) VecIterator {
	v := NewVecSort(in, col)
	if s, ok := v.(*vecSortOp); ok {
		s.mem = c.Mem.Child("sort")
	}
	return v
}

// joinOffsets resolves the primary equi-join columns of p against the
// child schemas, orienting the predicate so its left column comes from the
// plan's left child.
func (c *Compiler) joinOffsets(p *relalg.Plan, jp relalg.JoinPred, ls, rs []relalg.ColID) (lk, rk int, err error) {
	lcol, rcol := jp.L, jp.R
	if !p.Left.Expr.Has(lcol.Rel) {
		lcol, rcol = rcol, lcol
	}
	if lk, err = colOffset(ls, lcol); err != nil {
		return 0, 0, err
	}
	if rk, err = colOffset(rs, rcol); err != nil {
		return 0, 0, err
	}
	return lk, rk, nil
}

// hashJoinKeys extends the primary key columns with every other cross
// equi-predicate of the join, yielding the compound hash key. Keying on
// every available equi-join column keeps match sets minimal.
func (c *Compiler) hashJoinKeys(p *relalg.Plan, ls, rs []relalg.ColID, lk, rk int) (lKeys, rKeys []int, err error) {
	lKeys, rKeys = []int{lk}, []int{rk}
	for pi, ojp := range c.Q.Joins {
		if pi == p.Pred || !ojp.Crosses(p.Left.Expr, p.Right.Expr) {
			continue
		}
		ol, or := ojp.L, ojp.R
		if !p.Left.Expr.Has(ol.Rel) {
			ol, or = or, ol
		}
		lo, err := colOffset(ls, ol)
		if err != nil {
			return nil, nil, err
		}
		ro, err := colOffset(rs, or)
		if err != nil {
			return nil, nil, err
		}
		lKeys = append(lKeys, lo)
		rKeys = append(rKeys, ro)
	}
	return lKeys, rKeys, nil
}

// scanConds resolves the local selection predicates of a relation into the
// structured conditions evaluated by the vectorized scan kernels.
func (c *Compiler) scanConds(rel int, schema []relalg.ColID) ([]ScanCond, error) {
	var conds []ScanCond
	for _, pr := range c.Q.ScanPredsOf(rel) {
		off, err := colOffset(schema, pr.Col)
		if err != nil {
			return nil, err
		}
		conds = append(conds, ScanCond{Off: off, Op: pr.Op, Val: pr.Val})
	}
	return conds, nil
}

// colFilterPredsOnly compiles just the non-equi residual filters crossing
// this join (used when all equi predicates are part of the hash key) to
// structured ColPreds — the joins evaluate these directly on (build, probe)
// index pairs without materializing a row.
func (c *Compiler) colFilterPredsOnly(p *relalg.Plan, schema []relalg.ColID) ([]ColPred, error) {
	var preds []ColPred
	lset, rset := p.Left.Expr, p.Right.Expr
	for _, f := range c.Q.Filters {
		crosses := (lset.Has(f.L.Rel) && rset.Has(f.R.Rel)) || (rset.Has(f.L.Rel) && lset.Has(f.R.Rel))
		if !crosses {
			continue
		}
		lo, err := colOffset(schema, f.L)
		if err != nil {
			return nil, err
		}
		ro, err := colOffset(schema, f.R)
		if err != nil {
			return nil, err
		}
		preds = append(preds, ColPred{L: lo, R: ro, Op: f.Op, Off: f.Off})
	}
	return preds, nil
}

// colResidualPreds compiles the join predicates and residual filters that
// first become checkable at this join (both sides present, not the primary
// equi-key) to structured ColPreds: the secondary equi-join predicates
// become {CmpEQ, 0} entries, the cross-relation filters keep their operator
// and constant offset.
func (c *Compiler) colResidualPreds(p *relalg.Plan, schema []relalg.ColID) ([]ColPred, error) {
	var preds []ColPred
	lset, rset := p.Left.Expr, p.Right.Expr
	for pi, jp := range c.Q.Joins {
		if pi == p.Pred || !jp.Crosses(lset, rset) {
			continue
		}
		lo, err := colOffset(schema, jp.L)
		if err != nil {
			return nil, err
		}
		ro, err := colOffset(schema, jp.R)
		if err != nil {
			return nil, err
		}
		preds = append(preds, ColPred{L: lo, R: ro, Op: relalg.CmpEQ})
	}
	for _, f := range c.Q.Filters {
		crosses := (lset.Has(f.L.Rel) && rset.Has(f.R.Rel)) || (rset.Has(f.L.Rel) && lset.Has(f.R.Rel))
		if !crosses {
			continue
		}
		lo, err := colOffset(schema, f.L)
		if err != nil {
			return nil, err
		}
		ro, err := colOffset(schema, f.R)
		if err != nil {
			return nil, err
		}
		preds = append(preds, ColPred{L: lo, R: ro, Op: f.Op, Off: f.Off})
	}
	return preds, nil
}

func colOffset(schema []relalg.ColID, c relalg.ColID) (int, error) {
	for i, s := range schema {
		if s == c {
			return i, nil
		}
	}
	return 0, fmt.Errorf("exec: column %+v not in schema %+v", c, schema)
}
