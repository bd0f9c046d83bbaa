package server

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sqlmini"
)

// sharedSubexprSQL is a hot set whose statements deliberately overlap: every
// statement contains the MACHINERY customer filter scan, and the first two
// share the customer⋈orders join core — the cross-query sharing the semantic
// result cache exists for. Distinct projections keep the plan-cache keys
// distinct while the cacheable subtrees fingerprint identically.
var sharedSubexprSQL = []string{
	`SELECT l.l_orderkey FROM customer c, orders o, lineitem l
	   WHERE c.c_mktsegment = 'MACHINERY' AND c.c_custkey = o.o_custkey
	     AND o.o_orderkey = l.l_orderkey`,
	`SELECT o.o_orderkey FROM customer c, orders o
	   WHERE c.c_mktsegment = 'MACHINERY' AND c.c_custkey = o.o_custkey`,
	`SELECT c.c_custkey FROM customer c WHERE c.c_mktsegment = 'MACHINERY'`,
}

// parseSQL parses one test statement with the server's dictionary.
func parseSQL(t *testing.T, srv *Server, sql string) *Stmt {
	t.Helper()
	st, err := srv.Session().Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestServeConcurrentStressResultCache extends the race-shard stress to the
// semantic result cache: goroutines hammer a hot set of statements that
// SHARE subexpressions, with result caching enabled. Every multiset must
// match the uncached serial baseline, and the cache must demonstrably serve
// (stores and cross-statement hits both nonzero).
func TestServeConcurrentStressResultCache(t *testing.T) {
	srv := testServer(t, Options{
		MaxConcurrent: 4, Parallelism: 2,
		ResultCacheBytes: 32 << 20,
	})
	baselines := make([]map[string]int, len(sharedSubexprSQL))
	for i, sql := range sharedSubexprSQL {
		q, err := sqlmini.Parse(sql, srv.Catalog(), sqlmini.Options{
			Dict: srv.opts.Dict, Date: srv.opts.Date,
		})
		if err != nil {
			t.Fatal(err)
		}
		baselines[i] = serialBaseline(t, srv.Catalog(), q)
	}

	const goroutines = 8
	const rounds = 10
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := srv.Session()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(sharedSubexprSQL)
				st, err := sess.Prepare(sharedSubexprSQL[i])
				if err != nil {
					t.Errorf("g%d r%d prepare: %v", g, r, err)
					return
				}
				res, err := st.Exec()
				if err != nil {
					t.Errorf("g%d r%d exec: %v", g, r, err)
					return
				}
				if !sameMultiset(multiset(res.Rows), baselines[i]) {
					t.Errorf("g%d r%d: statement %d diverged from the uncached serial baseline (%d rows)",
						g, r, i, len(res.Rows))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	m := srv.Metrics()
	if !m.ResultCacheEnabled {
		t.Fatal("result cache not enabled")
	}
	rc := m.ResultCache
	if rc.Stores == 0 {
		t.Fatal("stress run spooled nothing into the result cache")
	}
	if rc.Hits == 0 {
		t.Fatal("stress run never served from the result cache")
	}
	if rc.Bytes <= 0 || rc.Entries == 0 {
		t.Fatalf("result cache empty after the stress run: %+v", rc)
	}
	if rc.Invalidations != 0 {
		t.Fatalf("spurious invalidations on an immutable catalog: %+v", rc)
	}
}

// TestResultCacheInvalidationDifferential: an Append to a base table bumps
// the catalog data version, every cached result over that table bypasses
// (counted as invalidations), and post-mutation executions match a fresh
// uncached baseline over the MUTATED data — served results never go stale.
func TestResultCacheInvalidationDifferential(t *testing.T) {
	srv := testServer(t, Options{ResultCacheBytes: 32 << 20})
	sql := sharedSubexprSQL[0]
	st := parseSQL(t, srv, sql)

	// Warm the cache, then confirm it serves.
	if _, err := st.Exec(); err != nil {
		t.Fatal(err)
	}
	res, err := st.Exec()
	if err != nil {
		t.Fatal(err)
	}
	warm := srv.ResultCache().Metrics()
	if warm.Stores == 0 || warm.Hits == 0 {
		t.Fatalf("cache not serving before the mutation: %+v", warm)
	}
	if !sameMultiset(multiset(res.Rows), serialBaseline(t, srv.Catalog(), st.Query())) {
		t.Fatal("warm result diverged before the mutation")
	}

	// Mutate customer while quiesced: clone the highest-key row under a
	// fresh key so the filtered scan's output genuinely changes.
	cust := srv.Catalog().MustTable("customer")
	row := append([]int64(nil), cust.Rows[0]...)
	row[cust.MustCol("c_custkey")] = int64(len(cust.Rows) + 1000)
	cust.Append(row)
	cust.Analyze(0)

	res, err = st.Exec()
	if err != nil {
		t.Fatal(err)
	}
	after := srv.ResultCache().Metrics()
	if after.Invalidations == 0 {
		t.Fatal("no cache invalidations after Append bumped the data version")
	}
	want := serialBaseline(t, srv.Catalog(), st.Query())
	if !sameMultiset(multiset(res.Rows), want) {
		t.Fatal("post-mutation result diverged from the uncached baseline over mutated data")
	}
	// The re-spooled entries serve the NEW data.
	res, err = st.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if srv.ResultCache().Metrics().Hits == after.Hits {
		t.Fatal("cache never re-served after re-spooling the mutated table")
	}
	if !sameMultiset(multiset(res.Rows), want) {
		t.Fatal("re-warmed result diverged from the uncached baseline")
	}
}

// TestResultCacheFeedbackUnaffected is the server-level half of the §5.4
// bar: the RunStats-derived feedback must drive the entry identically with
// the cache on and off — same repair count, same converged plan version.
func TestResultCacheFeedbackUnaffected(t *testing.T) {
	run := func(opts Options) (versions []uint64, repairs []bool) {
		srv := testServer(t, opts)
		st := parseSQL(t, srv, sharedSubexprSQL[0])
		for i := 0; i < 6; i++ {
			res, err := st.Exec()
			if err != nil {
				t.Fatal(err)
			}
			versions = append(versions, res.PlanVersion)
			repairs = append(repairs, res.Repaired)
		}
		return versions, repairs
	}
	v0, r0 := run(Options{})
	v1, r1 := run(Options{ResultCacheBytes: 32 << 20})
	for i := range v0 {
		if v0[i] != v1[i] || r0[i] != r1[i] {
			t.Fatalf("feedback trajectory diverged with caching on:\nuncached versions=%v repairs=%v\ncached   versions=%v repairs=%v",
				v0, r0, v1, r1)
		}
	}
}

// TestSessionRePrepareResolvesSharedEntry: a re-prepared statement resolves
// through the shared plan cache to the same entry, for the same session and
// for a different one, and every re-prepare counts as a hit.
func TestSessionRePrepareResolvesSharedEntry(t *testing.T) {
	srv := testServer(t, Options{})
	sess := srv.Session()
	a, err := sess.Prepare(sharedSubexprSQL[1])
	if err != nil {
		t.Fatal(err)
	}
	if a.Hit {
		t.Fatal("first prepare reported a hit")
	}
	b, err := sess.Prepare(sharedSubexprSQL[1])
	if err != nil {
		t.Fatal(err)
	}
	if !b.Hit || b.entry != a.entry {
		t.Fatal("session re-prepare did not resolve to the shared entry")
	}
	n1, err := srv.Session().Prepare(sharedSubexprSQL[1])
	if err != nil {
		t.Fatal(err)
	}
	if !n1.Hit || n1.entry != a.entry {
		t.Fatal("fresh session did not share the entry")
	}
	// Named statements resolve through the shared cache too.
	s2 := srv.Session()
	q1, err := s2.PrepareNamed("Q1")
	if err != nil {
		t.Fatal(err)
	}
	q1b, err := s2.PrepareNamed("Q1")
	if err != nil {
		t.Fatal(err)
	}
	if !q1b.Hit || q1b.entry != q1.entry {
		t.Fatal("named re-prepare did not resolve to the shared entry")
	}
	m := srv.Metrics()
	if m.Hits != 3 {
		t.Fatalf("hits=%d, want 3 (two same-session, one cross-session)", m.Hits)
	}
}

// TestSessionPrepareReleasesEvictedEntries: a session that prepares many
// distinct statements against a bounded plan cache must not keep evicted
// entries — each with its live optimizer — reachable. With MaxEntries 4,
// 64 distinct prepares evict 60 entries; once the caller drops its
// statement handles, every evicted entry must be garbage collected while
// the session is still alive.
func TestSessionPrepareReleasesEvictedEntries(t *testing.T) {
	srv := testServer(t, Options{MaxEntries: 4})
	sess := srv.Session()
	var collected atomic.Int64
	for i := 0; i < 64; i++ {
		st, err := sess.Prepare(fmt.Sprintf(
			"SELECT c.c_custkey FROM customer c WHERE c.c_custkey < %d", i))
		if err != nil {
			t.Fatal(err)
		}
		if st.Hit {
			t.Fatalf("statement %d hit the cache; want 64 distinct entries", i)
		}
		runtime.SetFinalizer(st.entry, func(*planEntry) { collected.Add(1) })
	}
	evicted := srv.Metrics().Evictions
	if evicted != 60 {
		t.Fatalf("evictions=%d, want 60", evicted)
	}
	deadline := time.Now().Add(5 * time.Second)
	for collected.Load() < evicted && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := collected.Load(); got < evicted {
		t.Fatalf("%d of %d evicted entries collected; the rest are still reachable", got, evicted)
	}
	runtime.KeepAlive(sess)
}
