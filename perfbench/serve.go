package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/catalog"
	"repro/internal/server"
	"repro/internal/tpch"
)

// scaleFactor sizes the TPC-H data of the wire workloads (lineitem ≈ 60k
// rows): large enough that execution dominates a named statement, small
// enough that three set-ups fit a run.
const scaleFactor = 0.01

// clients is the connection count of the closed-loop wire workloads; the
// benchmark machine has two cores.
const clients = 2

// serveStmts is the serve-tpch mix. Q8Join is left out: one execution
// takes hundreds of milliseconds and would be the whole measurement.
var serveStmts = []string{"Q1", "Q3S", "Q5", "Q6", "Q10"}

func genTPCH(seed uint64) *catalog.Catalog {
	return tpch.Generate(tpch.Config{ScaleFactor: scaleFactor, Seed: seed})
}

// clientLog is one client's share of a closed-loop run.
type clientLog struct {
	lat       []float64 // ms per completed op
	at        []float64 // completion time of each op, s into the phase
	kind      []int     // per completed op: index of its statement, if any
	wire      []float64 // round trip minus the reply's elapsed=, ms
	attempted int64
	fails     []string
}

func (l *clientLog) fail(format string, args ...any) {
	l.fails = append(l.fails, fmt.Sprintf(format, args...))
}

// merge folds client logs into the report.
func merge(rep *report, logs []*clientLog) (wire []float64, clientMs float64) {
	for _, l := range logs {
		rep.lat = append(rep.lat, l.lat...)
		rep.at = append(rep.at, l.at...)
		rep.ops += int64(len(l.lat))
		rep.attempted += l.attempted
		for _, f := range l.fails {
			rep.fail("%s", f)
		}
		wire = append(wire, l.wire...)
		for _, x := range l.lat {
			clientMs += x
		}
	}
	sort.Float64s(wire)
	return wire, clientMs
}

// ---- serve-tpch ----

type serveTPCH struct {
	*wireRig
	ref map[string]digest
}

func setupServeTPCH(cfg *config) (instance, error) {
	cat := genTPCH(cfg.seed)
	ref, err := referenceDigests(cat, serveStmts)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(cat, server.Options{
		Parallelism: 1,
		Named:       tpch.Queries(),
		Dict:        tpch.Dict(),
		Date:        tpch.Date,
		TraceEvents: traceRing(cfg, 5000), // queue-wait and exec per request
	})
	if err != nil {
		return nil, err
	}
	rig, err := startRig(srv, clients)
	if err != nil {
		return nil, err
	}
	w := &serveTPCH{wireRig: rig, ref: ref}
	for _, c := range w.conns {
		for _, name := range serveStmts {
			if _, err := c.call("query " + name + " " + name); err != nil {
				w.close()
				return nil, err
			}
		}
	}
	// Warm up until one full round of the mix repairs no plan.
	for round := 0; round < 100; round++ {
		repaired := false
		for _, name := range serveStmts {
			reply, err := w.conns[0].call("rows " + name)
			if err != nil {
				w.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			repaired = repaired || strings.Contains(reply, "repaired=true")
		}
		if !repaired {
			break
		}
	}
	return w, nil
}

// referenceDigests executes the named statements once on a separate server
// over the same data, sharing no plan cache, statistics or result cache.
func referenceDigests(cat *catalog.Catalog, names []string) (map[string]digest, error) {
	ref, err := server.New(cat, server.Options{Named: tpch.Queries()})
	if err != nil {
		return nil, err
	}
	sess := ref.Session()
	out := map[string]digest{}
	for _, name := range names {
		st, err := sess.PrepareNamed(name)
		if err != nil {
			return nil, err
		}
		res, err := st.Exec()
		if err != nil {
			return nil, err
		}
		out[name] = digestRows(res.Rows)
	}
	return out, ref.Shutdown()
}

func (w *serveTPCH) run(cfg *config, rep *report) error {
	win := openWindow(w.srv)
	logs := make([]*clientLog, len(w.conns))
	var wg sync.WaitGroup
	start := rep.begin()
	deadline := start.Add(cfg.dur)
	for i, c := range w.conns {
		l := &clientLog{}
		logs[i] = l
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := i; time.Now().Before(deadline); k++ {
				name := serveStmts[k%len(serveStmts)]
				l.attempted++
				sp := rep.spans.open(rep.spans.newTrace(), 0, "server.rows")
				t0 := time.Now()
				reply, err := c.call("rows " + name)
				rt := time.Since(t0)
				rep.spans.close(sp)
				if err != nil {
					l.fail("%v", err)
					if connLost(err) {
						return
					}
					continue
				}
				got, err := digestWire(c.rows)
				if err != nil || got != w.ref[name] {
					l.fail("%s: result %+v differs from reference %+v (%v)", name, got, w.ref[name], err)
					continue
				}
				l.lat = append(l.lat, ms(rt))
				l.at = append(l.at, time.Since(start).Seconds())
				l.kind = append(l.kind, k%len(serveStmts))
				if el, ok := replyElapsed(reply); ok {
					l.wire = append(l.wire, ms(rt-el))
				}
			}
		}()
	}
	wg.Wait()
	rep.end(start)
	per := make([][]float64, len(serveStmts))
	for _, l := range logs {
		for j, x := range l.lat {
			per[l.kind[j]] = append(per[l.kind[j]], x)
		}
	}
	for j, xs := range per {
		sort.Float64s(xs)
		rep.notef("%-4s n=%-6d p50=%.4fms p99=%.4fms", serveStmts[j], len(xs), quantile(xs, 0.5), quantile(xs, 0.99))
	}
	wire, clientMs := merge(rep, logs)
	if !cfg.traced {
		return nil
	}
	rep.layer["server.wire_overhead_ms"] = quantile(wire, 0.5)
	return win.layers(rep, clientMs)
}

// ---- adhoc-churn ----

// adhocTemplates are 4- to 8-way TPC-H joins with one literal each; the
// literal domains together hold tens of thousands of distinct statements,
// far more than the plan cache keeps.
var adhocTemplates = []struct {
	sql    string
	domain int64 // the literal is drawn from [0, domain)
}{
	{`SELECT COUNT(*) FROM region r, nation n, customer c, supplier s
WHERE r.r_regionkey = n.n_regionkey AND n.n_nationkey = c.c_nationkey
AND n.n_nationkey = s.s_nationkey AND c.c_custkey = %d`, 1500},
	{`SELECT COUNT(*) FROM region r, nation n, supplier s, partsupp ps, part p
WHERE r.r_regionkey = n.n_regionkey AND n.n_nationkey = s.s_nationkey
AND s.s_suppkey = ps.ps_suppkey AND ps.ps_partkey = p.p_partkey AND p.p_partkey = %d`, 2000},
	{`SELECT COUNT(*) FROM region r, nation n, customer c, orders o, supplier s, partsupp ps
WHERE r.r_regionkey = n.n_regionkey AND n.n_nationkey = c.c_nationkey
AND c.c_custkey = o.o_custkey AND n.n_nationkey = s.s_nationkey
AND s.s_suppkey = ps.ps_suppkey AND o.o_orderkey = %d`, 15000},
	{`SELECT COUNT(*) FROM region r, nation n, supplier s, partsupp ps, part p, customer c, orders o, nation n2
WHERE r.r_regionkey = n.n_regionkey AND n.n_nationkey = s.s_nationkey
AND s.s_suppkey = ps.ps_suppkey AND ps.ps_partkey = p.p_partkey
AND n.n_nationkey = c.c_nationkey AND c.c_custkey = o.o_custkey
AND c.c_nationkey = n2.n_nationkey AND p.p_partkey = %d`, 2000},
}

// adhocSQL draws one request.
func adhocSQL(r *rand.Rand) string {
	t := adhocTemplates[r.IntN(len(adhocTemplates))]
	sql := fmt.Sprintf(t.sql, r.Int64N(t.domain))
	return strings.Join(strings.Fields(sql), " ")
}

// adhocCheckEvery is the sampling rate of the reference comparison.
const adhocCheckEvery = 8

type adhocChurn struct {
	*wireRig
	cat *catalog.Catalog
}

func adhocOptions(cfg *config) server.Options {
	return server.Options{
		Parallelism: 1,
		MaxEntries:  256,
		StaleAfter:  4096,
		Dict:        tpch.Dict(),
		Date:        tpch.Date,
		TraceEvents: traceRing(cfg, 5000), // prepare, queue-wait, exec, repair per request
	}
}

func setupAdhocChurn(cfg *config) (instance, error) {
	cat := genTPCH(cfg.seed)
	srv, err := server.New(cat, adhocOptions(cfg))
	if err != nil {
		return nil, err
	}
	rig, err := startRig(srv, clients)
	if err != nil {
		return nil, err
	}
	w := &adhocChurn{wireRig: rig, cat: cat}
	// Warm the statistics plane on a stream of requests the measured phase
	// does not replay.
	r := rand.New(rand.NewPCG(cfg.seed, 0xadc0))
	for i := 0; i < 200; i++ {
		if _, _, _, err := adhocRequest(w.conns[i%clients], nil, 0, 0, adhocSQL(r)); err != nil {
			w.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return w, nil
}

// adhocRequest runs one ad-hoc request: prepare the statement, then fetch
// its single COUNT(*) row. It takes two round trips because "run" replies
// with the row count only, not the value the check needs. rowsRT is the
// second round trip alone.
func adhocRequest(c *wireClient, spans *spanLog, trace, parent uint64, sql string) (count int64, reply string, rowsRT time.Duration, err error) {
	sp := spans.open(trace, parent, "server.prepare")
	_, err = c.call("prepare a " + sql)
	spans.close(sp)
	if err != nil {
		return 0, "", 0, err
	}
	sp = spans.open(trace, parent, "server.rows")
	t0 := time.Now()
	reply, err = c.call("rows a")
	rowsRT = time.Since(t0)
	spans.close(sp)
	if err != nil {
		return 0, "", 0, err
	}
	count, err = wireCount(c.rows)
	if err != nil {
		return 0, "", 0, requestErrorf("COUNT(*) reply %q: %v", c.rows, err)
	}
	return count, reply, rowsRT, nil
}

// wireCount reads the reply of a scalar COUNT(*). The server answers a
// COUNT(*) over no input rows with no result row instead of one row holding
// 0; both the measured and the reference side read that as 0.
func wireCount(rows []byte) (int64, error) {
	s := strings.TrimSpace(string(rows))
	if s == "" {
		return 0, nil
	}
	return strconv.ParseInt(s, 10, 64)
}

func resultCount(res *server.Result) int64 {
	if len(res.Rows) == 0 {
		return 0
	}
	return res.Rows[0][0]
}

type adhocSample struct {
	sql   string
	count int64
}

func (w *adhocChurn) run(cfg *config, rep *report) error {
	win := openWindow(w.srv)
	logs := make([]*clientLog, len(w.conns))
	samples := make([][]adhocSample, len(w.conns))
	var wg sync.WaitGroup
	start := rep.begin()
	deadline := start.Add(cfg.dur)
	for i, c := range w.conns {
		l := &clientLog{}
		logs[i] = l
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewPCG(cfg.seed, uint64(i)))
			for time.Now().Before(deadline) {
				sql := adhocSQL(r)
				check := r.IntN(adhocCheckEvery) == 0
				l.attempted++
				trace := rep.spans.newTrace()
				req := rep.spans.open(trace, 0, "adhoc.request")
				t0 := time.Now()
				n, reply, rowsRT, err := adhocRequest(c, rep.spans, trace, req.ID, sql)
				rt := time.Since(t0)
				rep.spans.close(req)
				if err != nil {
					l.fail("%v", err)
					if connLost(err) {
						return
					}
					continue
				}
				l.lat = append(l.lat, ms(rt))
				l.at = append(l.at, time.Since(start).Seconds())
				if el, ok := replyElapsed(reply); ok {
					l.wire = append(l.wire, ms(rowsRT-el))
				}
				if check {
					samples[i] = append(samples[i], adhocSample{sql, n})
				}
			}
		}()
	}
	wg.Wait()
	rep.end(start)
	wire, clientMs := merge(rep, logs)

	// Sampled reference check on a separate server over the same data.
	ref, err := server.New(w.cat, server.Options{Dict: tpch.Dict(), Date: tpch.Date})
	if err != nil {
		return err
	}
	sess := ref.Session()
	var checked int
	var parse []float64
	for _, ss := range samples {
		for _, s := range ss {
			checked++
			res, err := sess.Query(s.sql)
			if err != nil {
				rep.fail("reference %q: %v", s.sql, err)
				continue
			}
			if want := resultCount(res); want != s.count {
				rep.fail("COUNT(*) of %q: got %d, reference %d", s.sql, s.count, want)
			}
			if cfg.traced {
				t0 := time.Now()
				if _, err := repro.ParseSQL(s.sql, w.cat, repro.SQLOptions{Dict: tpch.Dict(), Date: tpch.Date}); err != nil {
					return err
				}
				parse = append(parse, float64(time.Since(t0).Nanoseconds())/1e3)
			}
		}
	}
	if err := ref.Shutdown(); err != nil {
		return err
	}
	rep.notef("checked %d sampled requests against the reference server", checked)
	if !cfg.traced {
		return nil
	}
	sort.Float64s(parse)
	rep.layer["sqlmini.parse_us"] = quantile(parse, 0.5)
	rep.layer["server.wire_overhead_ms"] = quantile(wire, 0.5)
	return win.layers(rep, clientMs)
}
