// Package testkit builds synthetic catalogs and random single-block queries
// for the differential and property-based test suites. Random queries have
// connected join graphs (a random spanning tree plus optional extra edges),
// random local predicates, and random physical designs (indexes, sort
// orders) so that every operator alternative in the plan space gets
// exercised. Oracle (oracle.go) is the plan-independent reference evaluator
// the executor's results and cardinality feedback are checked against.
package testkit

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/relalg"
	"repro/internal/stats"
)

// ColsPerTable is the arity of every synthetic table.
const ColsPerTable = 4

// SyntheticCatalog creates nTables tables T0..T(n-1) with randomized sizes
// (10..100k rows), per-column distinct counts, and a random physical design:
// each column independently gets an index with probability 1/2, and each
// table is clustered on column 0 with probability 1/3.
func SyntheticCatalog(r *stats.Rand, nTables int) *catalog.Catalog {
	cat := catalog.New()
	for i := 0; i < nTables; i++ {
		t := catalog.NewTable(fmt.Sprintf("T%d", i), "c0", "c1", "c2", "c3")
		rows := float64(10 + r.Intn(100000))
		distincts := make([]int64, ColsPerTable)
		for c := range distincts {
			d := int64(1 + r.Intn(int(rows)))
			distincts[c] = d
		}
		t.SetSyntheticStats(rows, distincts)
		for c := 0; c < ColsPerTable; c++ {
			if r.Intn(2) == 0 {
				t.AddIndex(fmt.Sprintf("c%d", c))
			}
		}
		if r.Intn(3) == 0 {
			t.SortedBy = 0
		}
		cat.Add(t)
	}
	return cat
}

// RandomQuery builds a query over nRels relations drawn from the catalog's
// tables (with repetition — self-joins occur), a random spanning tree of
// equi-join predicates, up to two extra join edges, and up to nRels random
// selection predicates.
func RandomQuery(r *stats.Rand, cat *catalog.Catalog, nRels int) *relalg.Query {
	names := cat.Names()
	q := &relalg.Query{Name: fmt.Sprintf("rand%d", r.Intn(1_000_000))}
	for i := 0; i < nRels; i++ {
		table := names[r.Intn(len(names))]
		q.Rels = append(q.Rels, relalg.RelRef{
			Alias: fmt.Sprintf("R%d", i),
			Table: table,
		})
	}
	// Random spanning tree: attach each relation i>0 to a random earlier
	// relation.
	for i := 1; i < nRels; i++ {
		j := r.Intn(i)
		q.Joins = append(q.Joins, relalg.JoinPred{
			L: relalg.ColID{Rel: j, Off: r.Intn(ColsPerTable)},
			R: relalg.ColID{Rel: i, Off: r.Intn(ColsPerTable)},
		})
	}
	// Extra edges make the join graph cyclic sometimes, which exercises
	// multiple connecting predicates per partition.
	for k := 0; k < 2 && nRels > 2; k++ {
		if r.Intn(2) == 0 {
			continue
		}
		a := r.Intn(nRels)
		b := r.Intn(nRels)
		if a == b {
			continue
		}
		q.Joins = append(q.Joins, relalg.JoinPred{
			L: relalg.ColID{Rel: a, Off: r.Intn(ColsPerTable)},
			R: relalg.ColID{Rel: b, Off: r.Intn(ColsPerTable)},
		})
	}
	// Random local selections.
	for i := 0; i < nRels; i++ {
		if r.Intn(2) == 0 {
			continue
		}
		t := cat.MustTable(q.Rels[i].Table)
		off := r.Intn(ColsPerTable)
		max := t.Cols[off].Max
		if max < 1 {
			max = 1
		}
		ops := []relalg.CmpOp{relalg.CmpEQ, relalg.CmpLT, relalg.CmpGT, relalg.CmpLE, relalg.CmpGE}
		q.Scans = append(q.Scans, relalg.ScanPred{
			Col: relalg.ColID{Rel: i, Off: off},
			Op:  ops[r.Intn(len(ops))],
			Val: r.Int64n(max + 1),
		})
	}
	if err := q.Validate(); err != nil {
		panic(err)
	}
	return q
}

// RandomConnectedSubset returns a random connected subexpression of the
// query with at least minSize relations — the target of a synthetic
// cardinality update.
func RandomConnectedSubset(r *stats.Rand, q *relalg.Query, minSize int) relalg.RelSet {
	n := len(q.Rels)
	for tries := 0; tries < 100; tries++ {
		s := relalg.Single(r.Intn(n))
		size := minSize + r.Intn(n-minSize+1)
		for s.Count() < size {
			grown := false
			for _, jp := range q.Joins {
				if s.Has(jp.L.Rel) != s.Has(jp.R.Rel) && r.Intn(2) == 0 {
					s = s.Add(jp.L.Rel).Add(jp.R.Rel)
					grown = true
					break
				}
			}
			if !grown {
				break
			}
		}
		if s.Count() >= minSize && q.Connected(s) {
			return s
		}
	}
	return q.AllRels()
}
