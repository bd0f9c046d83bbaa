package testkit

import (
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/relalg"
	"repro/internal/stats"
)

func TestSyntheticCatalogShape(t *testing.T) {
	r := stats.NewRand(1)
	cat := SyntheticCatalog(r, 4)
	names := cat.Names()
	if len(names) != 4 {
		t.Fatalf("tables = %v", names)
	}
	for _, n := range names {
		tb := cat.MustTable(n)
		if len(tb.ColNames) != ColsPerTable {
			t.Fatalf("%s arity = %d", n, len(tb.ColNames))
		}
		if tb.NumRows < 10 {
			t.Fatalf("%s rows = %v", n, tb.NumRows)
		}
		for c := 0; c < ColsPerTable; c++ {
			if tb.Cols[c].Distinct < 1 || tb.Cols[c].Hist == nil {
				t.Fatalf("%s col %d stats missing", n, c)
			}
		}
	}
}

func TestRandomQueryConnectedAndValid(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		r := stats.NewRand(seed)
		cat := SyntheticCatalog(r, 3)
		n := 2 + r.Intn(6)
		q := RandomQuery(r, cat, n)
		if err := q.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !q.Connected(q.AllRels()) {
			t.Fatalf("seed %d: query disconnected", seed)
		}
		if len(q.Joins) < n-1 {
			t.Fatalf("seed %d: too few join predicates", seed)
		}
	}
}

func TestRandomConnectedSubset(t *testing.T) {
	r := stats.NewRand(2)
	cat := SyntheticCatalog(r, 3)
	q := RandomQuery(r, cat, 6)
	for i := 0; i < 50; i++ {
		s := RandomConnectedSubset(r, q, 2)
		if s.Count() < 2 || !q.Connected(s) {
			t.Fatalf("bad subset %v", s)
		}
	}
}

// oracleFixture is a two-table catalog small enough to evaluate by hand.
func oracleFixture() (*catalog.Catalog, *relalg.Query) {
	cat := catalog.New()
	t0 := catalog.NewTable("T0", "a", "b")
	for _, r := range [][]int64{{1, 10}, {2, 20}, {2, 21}, {3, 30}} {
		t0.Append(r)
	}
	t1 := catalog.NewTable("T1", "a", "c")
	for _, r := range [][]int64{{2, 5}, {2, 6}, {3, 7}, {4, 8}} {
		t1.Append(r)
	}
	cat.Add(t0)
	cat.Add(t1)
	q := &relalg.Query{
		Name:  "fixture",
		Rels:  []relalg.RelRef{{Alias: "R0", Table: "T0"}, {Alias: "R1", Table: "T1"}},
		Scans: []relalg.ScanPred{{Col: relalg.ColID{Rel: 0, Off: 1}, Op: relalg.CmpGE, Val: 20}},
		Joins: []relalg.JoinPred{{L: relalg.ColID{Rel: 0, Off: 0}, R: relalg.ColID{Rel: 1, Off: 0}}},
		// R0.b < R1.c + 16
		Filters: []relalg.FilterPred{{L: relalg.ColID{Rel: 0, Off: 1}, R: relalg.ColID{Rel: 1, Off: 1},
			Op: relalg.CmpLT, Off: 16, Sel: 0.5}},
	}
	return cat, q
}

func TestOracleJoinRowsAndCards(t *testing.T) {
	cat, q := oracleFixture()
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	o, err := NewOracle(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	// b >= 20 keeps (2,20), (2,21), (3,30); of their join partners only
	// b < c+16 survives: 20<21, 20<22, 21<22 (21<21 and 30<23 fail).
	want := [][]int64{{2, 20, 2, 5}, {2, 20, 2, 6}, {2, 21, 2, 6}}
	got := slices.Clone(o.Rows())
	slices.SortFunc(got, slices.Compare[[]int64])
	if !slices.EqualFunc(got, want, slices.Equal[[]int64]) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
	for set, n := range map[relalg.RelSet]int64{
		relalg.Single(0): 3, relalg.Single(1): 4, q.AllRels(): 3,
	} {
		if got := o.Card(set); got != n {
			t.Errorf("Card(%s) = %d, want %d", q.SetString(set), got, n)
		}
	}
}

func TestOracleAggregates(t *testing.T) {
	cat, q := oracleFixture()
	q.Agg = &relalg.AggSpec{
		GroupBy:       []relalg.ColID{{Rel: 0, Off: 0}},
		Sums:          []relalg.ColID{{Rel: 1, Off: 1}},
		CountAll:      true,
		CountDistinct: []relalg.ColID{{Rel: 0, Off: 1}},
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	o, err := NewOracle(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	// One group (a=2): SUM(c) = 5+6+6, COUNT(*) = 3, COUNT(DISTINCT b) = 2.
	if got, want := o.Rows(), [][]int64{{2, 17, 3, 2}}; !slices.EqualFunc(got, want, slices.Equal[[]int64]) {
		t.Fatalf("grouped rows = %v, want %v", got, want)
	}

	// A scalar aggregate over empty input still yields one row of zeros;
	// a grouped one yields none.
	q.Scans[0].Val = 100
	q.Agg.GroupBy = nil
	o, err = NewOracle(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := o.Rows(), [][]int64{{0, 0, 0}}; !slices.EqualFunc(got, want, slices.Equal[[]int64]) {
		t.Fatalf("empty scalar rows = %v, want %v", got, want)
	}
	q.Agg.GroupBy = []relalg.ColID{{Rel: 0, Off: 0}}
	o, err = NewOracle(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	if got := o.Rows(); len(got) != 0 {
		t.Fatalf("empty grouped rows = %v, want none", got)
	}
}
