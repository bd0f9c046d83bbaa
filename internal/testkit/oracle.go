package testkit

import (
	"encoding/binary"
	"slices"

	"repro/internal/catalog"
	"repro/internal/relalg"
)

// Oracle is the plan-independent reference evaluator for the executor's
// differential tests. It evaluates a relalg.Query straight from its
// definition — nested loops over the base tables in a connected relation
// order, each Scans/Joins/Filters predicate applied as soon as its columns
// are bound, then the aggregation — and shares no code with internal/exec,
// so it checks both the result multiset and every RunStats cardinality the
// adaptive loop consumes. An equi-join predicate linking the next relation
// to an already-bound one is evaluated by a hash lookup on that relation's
// column instead of a full inner loop; the semantics are those of the plain
// nested loop. Results and cardinalities are memoized, so one Oracle serves
// any number of executions of its query.
//
// The oracle reads each table's current column snapshot once, at
// construction; it is not safe for concurrent use.
type Oracle struct {
	q     *relalg.Query
	cols  [][][]int64 // cols[rel][off][row]
	cand  [][]int32   // per relation: row ids passing its local selections
	index map[relalg.ColID]map[int64][]int32
	cards map[relalg.RelSet]int64
	rows  [][]int64
	done  bool
}

// NewOracle binds q to the catalog's current table contents.
func NewOracle(q *relalg.Query, cat *catalog.Catalog) (*Oracle, error) {
	o := &Oracle{q: q, index: map[relalg.ColID]map[int64][]int32{},
		cards: map[relalg.RelSet]int64{}}
	for rel, rr := range q.Rels {
		t, err := cat.Table(rr.Table)
		if err != nil {
			return nil, err
		}
		cols, n := t.ColumnSnapshot()
		o.cols = append(o.cols, cols)
		var cand []int32
	rows:
		for i := 0; i < n; i++ {
			for _, sp := range q.Scans {
				if sp.Col.Rel == rel && !sp.Op.Eval(cols[sp.Col.Off][i], sp.Val) {
					continue rows
				}
			}
			cand = append(cand, int32(i))
		}
		o.cand = append(o.cand, cand)
	}
	return o, nil
}

// Card returns the cardinality of subexpression s: the number of tuples of
// the join of s's relations under every predicate whose columns all lie in
// s — exactly what the executor counts for the plan node computing s.
func (o *Oracle) Card(s relalg.RelSet) int64 {
	if n, ok := o.cards[s]; ok {
		return n
	}
	var n int64
	o.enumerate(s, func([]int32) { n++ })
	o.cards[s] = n
	return n
}

// Rows returns the query result as a multiset. Without aggregation each row
// is the concatenation of every relation's columns in query relation order
// (relation 0's columns first). With aggregation each row is the group-by
// columns, the SUMs, COUNT(*) if requested, then the COUNT(DISTINCT)
// values, sorted ascending; a scalar aggregate (no GROUP BY) yields one row
// even over empty input, with every aggregate 0 (the engine has no NULLs).
func (o *Oracle) Rows() [][]int64 {
	if o.done {
		return o.rows
	}
	all := o.q.AllRels()
	var n int64
	if agg := o.q.Agg; agg != nil {
		groups := map[string]*oracleGroup{}
		var order []*oracleGroup
		var key []byte
		o.enumerate(all, func(bound []int32) {
			n++
			key = key[:0]
			for _, c := range agg.GroupBy {
				key = binary.LittleEndian.AppendUint64(key, uint64(o.val(c, bound)))
			}
			g := groups[string(key)]
			if g == nil {
				g = newOracleGroup(agg)
				for _, c := range agg.GroupBy {
					g.key = append(g.key, o.val(c, bound))
				}
				groups[string(key)] = g
				order = append(order, g)
			}
			g.add(o, agg, bound)
		})
		if len(agg.GroupBy) == 0 && len(order) == 0 {
			order = append(order, newOracleGroup(agg))
		}
		for _, g := range order {
			o.rows = append(o.rows, g.row(agg))
		}
		slices.SortFunc(o.rows, slices.Compare[[]int64])
	} else {
		o.enumerate(all, func(bound []int32) {
			n++
			var row []int64
			for rel, cols := range o.cols {
				for _, col := range cols {
					row = append(row, col[bound[rel]])
				}
			}
			o.rows = append(o.rows, row)
		})
	}
	o.cards[all] = n
	o.done = true
	return o.rows
}

type oracleGroup struct {
	key, sums []int64
	count     int64
	distinct  []map[int64]bool
}

func newOracleGroup(agg *relalg.AggSpec) *oracleGroup {
	g := &oracleGroup{sums: make([]int64, len(agg.Sums))}
	for range agg.CountDistinct {
		g.distinct = append(g.distinct, map[int64]bool{})
	}
	return g
}

func (g *oracleGroup) add(o *Oracle, agg *relalg.AggSpec, bound []int32) {
	for i, c := range agg.Sums {
		g.sums[i] += o.val(c, bound)
	}
	g.count++
	for i, c := range agg.CountDistinct {
		g.distinct[i][o.val(c, bound)] = true
	}
}

func (g *oracleGroup) row(agg *relalg.AggSpec) []int64 {
	row := append(append([]int64(nil), g.key...), g.sums...)
	if agg.CountAll {
		row = append(row, g.count)
	}
	for _, d := range g.distinct {
		row = append(row, int64(len(d)))
	}
	return row
}

func (o *Oracle) val(c relalg.ColID, bound []int32) int64 {
	return o.cols[c.Rel][c.Off][bound[c.Rel]]
}

// oracleStep binds one relation of the loop nest. probe, when set, is the
// equi-join predicate answered by the hash lookup (oriented so probe.L is
// the relation being bound); joins and filters are the remaining
// predicates whose last unbound column belongs to this relation.
type oracleStep struct {
	rel     int
	probe   *relalg.JoinPred
	joins   []relalg.JoinPred
	filters []relalg.FilterPred
}

// enumerate calls visit once per tuple of subexpression s, with bound[rel]
// holding the row id of every relation in s.
func (o *Oracle) enumerate(s relalg.RelSet, visit func(bound []int32)) {
	steps := o.plan(s)
	bound := make([]int32, len(o.q.Rels))
	var rec func(k int)
	rec = func(k int) {
		if k == len(steps) {
			visit(bound)
			return
		}
		st := &steps[k]
		ids := o.cand[st.rel]
		if st.probe != nil {
			ids = o.lookup(st.probe.L)[o.val(st.probe.R, bound)]
		}
	next:
		for _, id := range ids {
			bound[st.rel] = id
			for _, jp := range st.joins {
				if o.val(jp.L, bound) != o.val(jp.R, bound) {
					continue next
				}
			}
			for _, f := range st.filters {
				if !f.Op.Eval(o.val(f.L, bound), o.val(f.R, bound)+f.Off) {
					continue next
				}
			}
			rec(k + 1)
		}
	}
	rec(0)
}

// plan orders s's relations — starting from the one with the fewest
// qualifying rows, then repeatedly the lowest-numbered relation joined to
// an already-bound one (or, for a disconnected s, the lowest remaining) —
// and assigns every predicate internal to s to the step that binds its
// last relation.
func (o *Oracle) plan(s relalg.RelSet) []oracleStep {
	members := s.Members()
	if len(members) == 0 {
		return nil
	}
	first := members[0]
	for _, rel := range members {
		if len(o.cand[rel]) < len(o.cand[first]) {
			first = rel
		}
	}
	order := []int{first}
	boundSet := relalg.Single(first)
	for boundSet != s {
		next := -1
		for _, rel := range members {
			if boundSet.Has(rel) {
				continue
			}
			if next < 0 {
				next = rel
			}
			if o.joined(rel, boundSet) {
				next = rel
				break
			}
		}
		order = append(order, next)
		boundSet = boundSet.Add(next)
	}
	pos := make(map[int]int, len(order))
	steps := make([]oracleStep, len(order))
	for k, rel := range order {
		pos[rel] = k
		steps[k].rel = rel
	}
	for _, jp := range o.q.Joins {
		if !s.Has(jp.L.Rel) || !s.Has(jp.R.Rel) {
			continue
		}
		if pos[jp.L.Rel] < pos[jp.R.Rel] {
			jp.L, jp.R = jp.R, jp.L
		}
		st := &steps[pos[jp.L.Rel]]
		if st.probe == nil {
			st.probe = &jp
		} else {
			st.joins = append(st.joins, jp)
		}
	}
	for _, f := range o.q.Filters {
		if s.Has(f.L.Rel) && s.Has(f.R.Rel) {
			k := max(pos[f.L.Rel], pos[f.R.Rel])
			steps[k].filters = append(steps[k].filters, f)
		}
	}
	return steps
}

func (o *Oracle) joined(rel int, set relalg.RelSet) bool {
	for _, jp := range o.q.Joins {
		if (jp.L.Rel == rel && set.Has(jp.R.Rel)) || (jp.R.Rel == rel && set.Has(jp.L.Rel)) {
			return true
		}
	}
	return false
}

// lookup returns the hash index of column c over its relation's qualifying
// rows, building it on first use.
func (o *Oracle) lookup(c relalg.ColID) map[int64][]int32 {
	ix, ok := o.index[c]
	if !ok {
		ix = map[int64][]int32{}
		col := o.cols[c.Rel][c.Off]
		for _, id := range o.cand[c.Rel] {
			ix[col[id]] = append(ix[col[id]], id)
		}
		o.index[c] = ix
	}
	return ix
}
