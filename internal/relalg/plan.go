package relalg

import (
	"fmt"
	"strings"
)

// Plan is a physical plan tree: the output of every optimizer. Each node
// corresponds to one chosen SearchSpace alternative, annotated with the cost
// model's estimates at optimization time.
type Plan struct {
	Expr RelSet
	Prop Prop
	Log  LogOp
	Phy  PhyOp

	Rel    int   // scans
	Pred   int   // joins: primary predicate index into Query.Joins
	IdxCol ColID // index scans

	Left, Right *Plan // Right nil for unary, both nil for leaves

	Card      float64 // estimated output cardinality
	LocalCost float64 // estimated cost of this operator alone
	Cost      float64 // cumulative: LocalCost + children costs
}

// Clone deep-copies the plan tree.
func (p *Plan) Clone() *Plan {
	if p == nil {
		return nil
	}
	cp := *p
	cp.Left = p.Left.Clone()
	cp.Right = p.Right.Clone()
	return &cp
}

// Leaves appends the scan relations of the tree in left-to-right order.
func (p *Plan) Leaves(out []int) []int {
	if p == nil {
		return out
	}
	if p.Log == LogScan {
		return append(out, p.Rel)
	}
	out = p.Left.Leaves(out)
	return p.Right.Leaves(out)
}

// Nodes counts the operators in the tree.
func (p *Plan) Nodes() int {
	if p == nil {
		return 0
	}
	return 1 + p.Left.Nodes() + p.Right.Nodes()
}

// Signature returns a compact canonical string identifying the plan's
// structure (operators, join order, access paths) without cost annotations.
// Two plans with equal signatures are the same physical plan; the AQP layer
// uses it to detect plan switches.
func (p *Plan) Signature() string {
	if p == nil {
		return "-"
	}
	switch p.Log {
	case LogScan:
		if p.Phy == PhyIndexScan {
			return fmt.Sprintf("ix%d.%d", p.Rel, p.IdxCol.Off)
		}
		if p.Phy == PhySegScan {
			return fmt.Sprintf("ss%d.%d", p.Rel, p.IdxCol.Off)
		}
		return fmt.Sprintf("ts%d", p.Rel)
	case LogEnforce:
		return fmt.Sprintf("sort[%s](%s)", p.Prop, p.Left.Signature())
	default:
		return fmt.Sprintf("%s(%s,%s)", p.Phy, p.Left.Signature(), p.Right.Signature())
	}
}

// Explain renders the plan as an indented operator tree with cost and
// cardinality estimates, resolving names through the query.
func (p *Plan) Explain(q *Query) string {
	var b strings.Builder
	p.explain(q, &b, 0)
	return b.String()
}

func (p *Plan) explain(q *Query, b *strings.Builder, depth int) {
	if p == nil {
		return
	}
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(p.Label(q))
	fmt.Fprintf(b, "  [card=%.1f local=%.3f cost=%.3f]\n", p.Card, p.LocalCost, p.Cost)
	p.Left.explain(q, b, depth+1)
	p.Right.explain(q, b, depth+1)
}

// Label renders one plan node as EXPLAIN shows it. A join lists every
// equi-predicate it keys on after "on" (a hash join keys on all equi-joins
// crossing its inputs, primary first; merge and index nested-loops joins on
// the primary alone) and the predicates it checks on matched pairs after
// "filter": the remaining crossing equi-joins and every crossing
// cross-relation filter.
func (p *Plan) Label(q *Query) string {
	col := func(c ColID) string {
		if q == nil {
			return fmt.Sprintf("r%d.c%d", c.Rel, c.Off)
		}
		return q.ColString(c)
	}
	switch p.Log {
	case LogScan:
		name := "?"
		if q != nil && p.Rel < len(q.Rels) {
			name = q.Rels[p.Rel].Alias
		}
		switch p.Phy {
		case PhyIndexScan:
			return fmt.Sprintf("IndexScan %s key=%s", name, col(p.IdxCol))
		case PhySegScan:
			return fmt.Sprintf("SegScan %s zone=%s", name, col(p.IdxCol))
		}
		return "TableScan " + name
	case LogEnforce:
		return fmt.Sprintf("Sort %s", p.Prop)
	}
	var b strings.Builder
	switch p.Phy {
	case PhyHashJoin:
		b.WriteString("HashJoin")
	case PhyMergeJoin:
		b.WriteString("MergeJoin")
	case PhyIndexNLJoin:
		b.WriteString("IndexNLJoin")
	default:
		b.WriteString(p.Phy.String())
	}
	if q == nil || p.Pred >= len(q.Joins) {
		return b.String()
	}
	eq := func(jp JoinPred) string { return col(jp.L) + "=" + col(jp.R) }
	keys := []string{eq(q.Joins[p.Pred])}
	var filters []string
	for pi, jp := range q.Joins {
		if pi == p.Pred || !jp.Crosses(p.Left.Expr, p.Right.Expr) {
			continue
		}
		if p.Phy == PhyHashJoin {
			keys = append(keys, eq(jp))
		} else {
			filters = append(filters, eq(jp))
		}
	}
	for _, f := range q.Filters {
		if !(JoinPred{L: f.L, R: f.R}).Crosses(p.Left.Expr, p.Right.Expr) {
			continue
		}
		s := col(f.L) + f.Op.String() + col(f.R)
		if f.Off > 0 {
			s += fmt.Sprintf("+%d", f.Off)
		} else if f.Off < 0 {
			s += fmt.Sprintf("%d", f.Off)
		}
		filters = append(filters, s)
	}
	b.WriteString(" on " + strings.Join(keys, " AND "))
	if len(filters) > 0 {
		b.WriteString(" filter " + strings.Join(filters, " AND "))
	}
	return b.String()
}
