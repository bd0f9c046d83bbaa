package exec

// This file integrates the cross-query semantic result cache
// (internal/rescache) into the vectorized compiler as a spool/probe pair.
// The serving layer derives cache CANDIDATES from a plan once per plan
// version — the cacheable subtrees, each with its canonical fingerprint —
// and hands them to the Compiler. At compile time every candidate is
// resolved into a DECISION:
//
//   - probe hit: the whole subtree is replaced by a cached scan handing out
//     zero-copy column windows over the materialized result, permuted from
//     the entry's canonical column order into this plan's schema order, and
//     the entry's recorded per-node cardinalities are replayed into RunStats
//     so the adaptive feedback loop observes byte-identical counts;
//   - miss: the subtree compiles normally and is wrapped in a spool that
//     tees its batches into a materialization, permutes it into canonical
//     column order at end-of-stream and stores it, pinned to the data
//     versions of its base tables.
//
// Soundness leans on three invariants. First, equal fingerprints imply
// isomorphic subexpressions (relalg.Fingerprinter), and candidates refuse
// sets whose canonical member order is ambiguous (self-joins), so the
// canonical column order is well-defined across queries. Second, only
// subtrees promising no physical property (Prop == Any) are candidates: a
// cached result is a multiset, and every order-sensitive consumer (merge
// join, sorted output) sits behind an explicit Prop or Enforce the
// candidate walk refuses. Third, a probe only hits when the entry records a
// cardinality for every counted node of THIS plan's subtree shape; a
// fingerprint-equal entry produced by a differently-shaped plan bypasses to
// a miss and is overwritten by the new spool.

import (
	"fmt"

	"repro/internal/relalg"
	"repro/internal/rescache"
)

// CachePoint pairs one counted node of a cacheable subtree with its
// canonical fingerprint: the unit of cardinality replay.
type CachePoint struct {
	Set relalg.RelSet
	FP  string
}

// CacheCandidate is one cacheable subtree of a specific plan tree.
type CacheCandidate struct {
	// Node is the subtree root inside the plan the candidate was built
	// from; decisions are matched by node identity, so candidates must be
	// rebuilt whenever the plan tree is replaced (every repair).
	Node *relalg.Plan
	// Expr is the subtree's relation set in the minting query.
	Expr relalg.RelSet
	// FP is the canonical fingerprint of Expr — the cache key.
	FP string
	// CanonOrder lists Expr's member relations in canonical fingerprint
	// order: the column order of the materialized entry.
	CanonOrder []int
	// Counts lists every node of the subtree that the compiler wires a
	// cardinality counter onto (the root first), with its fingerprint.
	Counts []CachePoint
	// Cost is the optimizer's cost estimate for the subtree — what a probe
	// hit saves, and the admission threshold input.
	Cost float64
}

// BuildCacheCandidates walks plan and returns its cacheable subtrees in
// pre-order (parents before children). A node qualifies when it is a
// filtered table scan or a join, promises no physical property, its member
// order is unambiguous (no self-join tie-break), and its estimated cost
// reaches minCost. The walk mirrors the compiler's counting structure: the
// folded inner leaf of an index nested-loops join is neither counted nor
// offered. The Fingerprinter must be the minting query's; the caller
// serializes access to it (it memoizes internally).
func BuildCacheCandidates(q *relalg.Query, plan *relalg.Plan, fper *relalg.Fingerprinter, minCost float64) []CacheCandidate {
	var out []CacheCandidate
	var walk func(p *relalg.Plan)
	walk = func(p *relalg.Plan) {
		if p == nil {
			return
		}
		if cacheEligible(q, p, minCost) && !fper.AmbiguousOrder(p.Expr) {
			out = append(out, CacheCandidate{
				Node:       p,
				Expr:       p.Expr,
				FP:         fper.Fingerprint(p.Expr),
				CanonOrder: fper.CanonicalMembers(p.Expr),
				Counts:     collectCachePoints(nil, p, fper),
				Cost:       p.Cost,
			})
		}
		switch p.Log {
		case relalg.LogScan:
		case relalg.LogEnforce:
			walk(p.Left)
		case relalg.LogJoin:
			if p.Phy != relalg.PhyIndexNLJoin {
				walk(p.Left)
			}
			walk(p.Right)
		}
	}
	walk(plan)
	return out
}

// cacheEligible applies the per-node candidacy rules.
func cacheEligible(q *relalg.Query, p *relalg.Plan, minCost float64) bool {
	if p.Prop.Kind != relalg.PropAny || p.Cost < minCost {
		return false
	}
	switch p.Log {
	case relalg.LogScan:
		// Unfiltered scans would cache a copy of the base table; index
		// scans promise an order even when Prop does not demand one.
		return p.Phy != relalg.PhyIndexScan && len(q.ScanPredsOf(p.Rel)) > 0
	case relalg.LogJoin:
		return true
	}
	return false
}

// collectCachePoints appends the (set, fingerprint) of every node the
// compiler counts within the subtree, mirroring compileVec: scans and joins
// are counted, enforcers are not, and the inner leaf of an index
// nested-loops join is folded into the join operator uncounted.
func collectCachePoints(out []CachePoint, p *relalg.Plan, fper *relalg.Fingerprinter) []CachePoint {
	if p == nil {
		return out
	}
	switch p.Log {
	case relalg.LogScan:
		out = append(out, CachePoint{Set: p.Expr, FP: fper.Fingerprint(p.Expr)})
	case relalg.LogEnforce:
		out = collectCachePoints(out, p.Left, fper)
	case relalg.LogJoin:
		out = append(out, CachePoint{Set: p.Expr, FP: fper.Fingerprint(p.Expr)})
		if p.Phy != relalg.PhyIndexNLJoin {
			out = collectCachePoints(out, p.Left, fper)
		}
		out = collectCachePoints(out, p.Right, fper)
	}
	return out
}

// cacheDecision is one resolved candidate: serve (entry != nil) or spool.
type cacheDecision struct {
	cand     *CacheCandidate
	entry    *rescache.Entry         // probe hit: serve these columns
	versions []rescache.TableVersion // spool: versions pinned at decision time
}

// tableVersion resolves a base table's current data version for probe
// revalidation.
func (c *Compiler) tableVersion(table string) (uint64, bool) {
	t, err := c.Cat.Table(table)
	if err != nil {
		return 0, false
	}
	return t.DataVersion(), true
}

// resolveCache turns the candidate list into per-node decisions for this
// compilation. Candidates arrive in pre-order, so containment is resolved
// outermost-first: everything inside a probe hit is skipped (those nodes are
// never compiled), and at most one spool is placed along any root-to-leaf
// path (a nested spool would tee rows the outer spool already pays for).
// Data-overridden relations (stream windows) compile cache-free.
func (c *Compiler) resolveCache() {
	c.decisions = nil
	if !c.Cache.Enabled() || len(c.CacheCands) == 0 || c.Data != nil {
		return
	}
	var hitRoots, spoolRoots []relalg.RelSet
	under := func(s relalg.RelSet, roots []relalg.RelSet) bool {
		for _, r := range roots {
			if s.IsSubset(r) {
				return true
			}
		}
		return false
	}
	for i := range c.CacheCands {
		cand := &c.CacheCands[i]
		if under(cand.Expr, hitRoots) {
			continue
		}
		entry, ok := c.Cache.Probe(cand.FP, c.tableVersion, func(e *rescache.Entry) bool {
			return c.cacheCompatible(cand, e)
		})
		if ok {
			if c.decisions == nil {
				c.decisions = map[*relalg.Plan]*cacheDecision{}
			}
			c.decisions[cand.Node] = &cacheDecision{cand: cand, entry: entry}
			hitRoots = append(hitRoots, cand.Expr)
			continue
		}
		if under(cand.Expr, spoolRoots) {
			continue
		}
		versions := make([]rescache.TableVersion, 0, len(cand.CanonOrder))
		usable := true
		for _, rel := range cand.CanonOrder {
			name := c.Q.Rels[rel].Table
			v, ok := c.tableVersion(name)
			if !ok {
				usable = false
				break
			}
			versions = append(versions, rescache.TableVersion{Table: name, Version: v})
		}
		if !usable {
			continue
		}
		if c.decisions == nil {
			c.decisions = map[*relalg.Plan]*cacheDecision{}
		}
		c.decisions[cand.Node] = &cacheDecision{cand: cand, versions: versions}
		spoolRoots = append(spoolRoots, cand.Expr)
	}
}

// cacheCompatible reports whether a stored entry can serve this plan's
// subtree: the column count matches the subtree's full output width and the
// entry records a cardinality for every node this plan shape counts.
func (c *Compiler) cacheCompatible(cand *CacheCandidate, e *rescache.Entry) bool {
	width := 0
	for _, rel := range cand.CanonOrder {
		arity, err := c.tableArity(rel)
		if err != nil {
			return false
		}
		width += arity
	}
	if len(e.Cols) != width || int64(e.N) != e.Cards[cand.FP] {
		return false
	}
	for _, cp := range cand.Counts {
		if _, ok := e.Cards[cp.FP]; !ok {
			return false
		}
	}
	return true
}

// takeDecision pops the decision attached to a plan node, if any. Popping
// (rather than reading) lets applyCacheDecision recurse into compileVec on
// the same node to build a spool's input without re-triggering itself.
func (c *Compiler) takeDecision(p *relalg.Plan) *cacheDecision {
	d := c.decisions[p]
	if d != nil {
		delete(c.decisions, p)
	}
	return d
}

// decisionWithin reports whether any unconsumed decision targets a node
// inside the subtree rooted at p. Pipeline fusion bails out in that case:
// the fused operator compiles the spine wholesale and would silently skip
// the probe or spool.
func (c *Compiler) decisionWithin(p *relalg.Plan) bool {
	for _, d := range c.decisions {
		if d.cand.Expr.IsSubset(p.Expr) {
			return true
		}
	}
	return false
}

// canonColOffsets maps every output column of the candidate's subtree to its
// offset in the entry's canonical column order.
func (c *Compiler) canonColOffsets(cand *CacheCandidate) (map[relalg.ColID]int, error) {
	off := map[relalg.ColID]int{}
	base := 0
	for _, rel := range cand.CanonOrder {
		arity, err := c.tableArity(rel)
		if err != nil {
			return nil, err
		}
		for i := 0; i < arity; i++ {
			off[relalg.ColID{Rel: rel, Off: i}] = base + i
		}
		base += arity
	}
	return off, nil
}

// applyCacheDecision compiles a decided node: a probe hit becomes a cached
// scan over the entry's columns permuted into this plan's schema order, with
// the entry's cardinalities replayed into RunStats (the subtree's operators
// never exist, so nothing double-counts); a miss compiles the subtree
// normally and wraps it in a spool.
func (c *Compiler) applyCacheDecision(d *cacheDecision, p *relalg.Plan, stats *RunStats) (VecIterator, []relalg.ColID, error) {
	schema, err := c.PlanSchema(p)
	if err != nil {
		return nil, nil, err
	}
	canon, err := c.canonColOffsets(d.cand)
	if err != nil {
		return nil, nil, err
	}
	if len(schema) != len(canon) {
		return nil, nil, fmt.Errorf("exec: cache candidate %v: schema width %d != canonical width %d",
			d.cand.Expr, len(schema), len(canon))
	}

	if d.entry != nil {
		cols := make([][]int64, len(schema))
		for i, cid := range schema {
			k, ok := canon[cid]
			if !ok {
				return nil, nil, fmt.Errorf("exec: cache candidate %v: column %+v not in canonical order", d.cand.Expr, cid)
			}
			cols[i] = d.entry.Cols[k]
			if cols[i] == nil {
				cols[i] = []int64{}
			}
		}
		for _, cp := range d.cand.Counts {
			*stats.counter(cp.Set) = d.entry.Cards[cp.FP]
		}
		return NewVecScan(cols, d.entry.N, ScanFilter{}), schema, nil
	}

	// Compile the missed subtree via compileVecNode: the profiling shim for
	// p (if any) is added by the compileVec wrapper around THIS call, so
	// going through compileVec here would double-register p's span.
	in, schema, err := c.compileVecNode(p, stats)
	if err != nil {
		return nil, nil, err
	}
	// canonPos[k] = position in the subtree schema of canonical column k.
	canonPos := make([]int, len(schema))
	for i, cid := range schema {
		canonPos[canon[cid]] = i
	}
	return &spoolOp{
		in:       in,
		cache:    c.Cache,
		fp:       d.cand.FP,
		canonPos: canonPos,
		counts:   d.cand.Counts,
		stats:    stats,
		versions: d.versions,
		maxBytes: c.Cache.MaxBytes(),
	}, schema, nil
}

// PlanSchema returns the output schema (the ColID of every output column, in
// order) of the operator tree the vectorized compiler builds for p, without
// building it.
func (c *Compiler) PlanSchema(p *relalg.Plan) ([]relalg.ColID, error) {
	relSchema := func(rel int) ([]relalg.ColID, error) {
		arity, err := c.tableArity(rel)
		if err != nil {
			return nil, err
		}
		s := make([]relalg.ColID, arity)
		for i := range s {
			s[i] = relalg.ColID{Rel: rel, Off: i}
		}
		return s, nil
	}
	switch p.Log {
	case relalg.LogScan:
		return relSchema(p.Rel)
	case relalg.LogEnforce:
		return c.PlanSchema(p.Left)
	case relalg.LogJoin:
		var ls []relalg.ColID
		var err error
		if p.Phy == relalg.PhyIndexNLJoin {
			ls, err = relSchema(p.Left.Expr.SingleMember())
		} else {
			ls, err = c.PlanSchema(p.Left)
		}
		if err != nil {
			return nil, err
		}
		rs, err := c.PlanSchema(p.Right)
		if err != nil {
			return nil, err
		}
		return append(append([]relalg.ColID(nil), ls...), rs...), nil
	}
	return nil, fmt.Errorf("exec: unknown logical operator %v", p.Log)
}

// spoolOp tees its input's batches into a materialization while streaming
// them onward unchanged. At end of stream it permutes the materialized
// columns into canonical order, attaches the subtree's observed
// cardinalities (final by then — the whole subtree has drained) and the
// pinned table versions, and stores the entry. Teeing is abandoned — the
// stream continues untouched — if the materialization outgrows the cache's
// whole byte budget, or on any error; an operator tree torn down before end
// of stream simply never stores.
type spoolOp struct {
	in       VecIterator
	cache    *rescache.Cache
	fp       string
	canonPos []int // canonical column k -> subtree schema position
	counts   []CachePoint
	stats    *RunStats
	versions []rescache.TableVersion
	maxBytes int64

	data      colData
	abandoned bool
	done      bool
}

func (s *spoolOp) Open() error { return s.in.Open() }

func (s *spoolOp) Next() (*Batch, error) {
	b, err := s.in.Next()
	if err != nil {
		s.abandoned = true
		s.data = colData{}
		return b, err
	}
	if b == nil {
		s.finish()
		return nil, nil
	}
	if !s.abandoned {
		s.data.appendBatch(b)
		if int64(s.data.n)*int64(len(s.canonPos))*8 > s.maxBytes {
			s.abandoned = true
			s.data = colData{}
		}
	}
	return b, nil
}

func (s *spoolOp) Close() error { return s.in.Close() }

// finish builds and stores the entry, once.
func (s *spoolOp) finish() {
	if s.abandoned || s.done {
		return
	}
	s.done = true
	cols := make([][]int64, len(s.canonPos))
	for k, i := range s.canonPos {
		if s.data.cols != nil {
			cols[k] = s.data.cols[i]
		} else {
			cols[k] = []int64{}
		}
	}
	cards := make(map[string]int64, len(s.counts))
	for _, cp := range s.counts {
		cards[cp.FP] = *s.stats.counter(cp.Set)
	}
	s.cache.Store(s.fp, &rescache.Entry{
		Cols: cols, N: s.data.n, Cards: cards, Versions: s.versions,
	})
}
