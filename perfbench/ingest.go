package main

import (
	"fmt"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/catalog"
	"repro/internal/server"
	"repro/internal/tpch"
)

// The appender writes appendRows rows every appendEvery. Each append
// invalidates every cached result over lineitem; ten a second leave most
// reads served from the result cache, so the read median measures hits and
// the read tail measures the re-executions after an invalidation.
const (
	appendEvery = 100 * time.Millisecond
	appendRows  = 100
)

// ingest serves reads from a server booted from a persistent data
// directory while an open-loop appender writes lineitem rows beside them.
// Appended rows carry order keys above every generated one and ship dates
// past Q1's cutoff, so Q1's answer never changes while every append still
// invalidates its cached result, and the range count over the new keys
// counts exactly the appended rows.
type ingest struct {
	*wireRig
	dir     string
	q1      digest
	base    int64 // first appended order key
	rangeSQ string
	openS   float64
}

func setupIngest(cfg *config) (instance, error) {
	dir, err := os.MkdirTemp(cfg.workdir, "data-")
	if err != nil {
		return nil, err
	}
	w := &ingest{dir: dir}
	cat := genTPCH(cfg.seed)
	ref, err := referenceDigests(cat, []string{"Q1"})
	if err != nil {
		return nil, err
	}
	w.q1 = ref["Q1"]
	w.base = int64(len(cat.MustTable("orders").Rows))

	// Seed the directory, flush it, and boot the measured server from it.
	seed, err := server.New(cat, server.Options{DataDir: w.dir})
	if err != nil {
		return nil, err
	}
	if err := seed.Shutdown(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	srv, err := server.New(schemaCatalog(), server.Options{
		DataDir:          w.dir,
		Parallelism:      1,
		ResultCacheBytes: 64 << 20,
		Named:            tpch.Queries(),
		Dict:             tpch.Dict(),
		Date:             tpch.Date,
		TraceEvents:      traceRing(cfg, 8000), // two executions with cache events per read
	})
	if err != nil {
		return nil, err
	}
	w.openS = time.Since(t0).Seconds()
	if info := srv.StorageInfo(); info.Seeded != 0 || info.Loaded == 0 {
		srv.Shutdown()
		return nil, fmt.Errorf("reopen did not load from disk: %+v", info)
	}
	if w.wireRig, err = startRig(srv, 1); err != nil {
		return nil, err
	}
	w.rangeSQ = fmt.Sprintf("SELECT COUNT(*) FROM lineitem l WHERE l.l_orderkey >= %d", w.base)
	for _, cmd := range []string{"query q1 Q1", "prepare rc " + w.rangeSQ} {
		if _, err := w.conns[0].call(cmd); err != nil {
			w.close()
			return nil, err
		}
	}
	for i := 0; i < 20; i++ {
		if _, _, err := w.readPair(); err != nil {
			w.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return w, nil
}

// schemaCatalog builds the TPC-H schema and physical design with a
// placeholder row per table; binding a data directory replaces the rows.
func schemaCatalog() *catalog.Catalog {
	return tpch.Generate(tpch.Config{ScaleFactor: 1e-9, Seed: 1})
}

// readPair runs one read: Q1, checked against the reference, then the
// range count over the appended keys. It returns the count.
func (w *ingest) readPair() (int64, time.Duration, error) {
	reply, err := w.conns[0].call("rows q1")
	if err != nil {
		return 0, 0, err
	}
	if got, err := digestWire(w.conns[0].rows); err != nil || got != w.q1 {
		return 0, 0, requestErrorf("Q1 result %+v differs from reference %+v (%v)", got, w.q1, err)
	}
	el, _ := replyElapsed(reply)
	if reply, err = w.conns[0].call("rows rc"); err != nil {
		return 0, 0, err
	}
	n, err := wireCount(w.conns[0].rows)
	if err != nil {
		return 0, 0, requestErrorf("range count reply %q: %v", w.conns[0].rows, err)
	}
	el2, _ := replyElapsed(reply)
	return n, el + el2, nil
}

// appender writes appendRows rows every appendEvery, timing each write from
// when it was due.
type appender struct {
	rows   [][][]int64 // acknowledged batches, in order
	issued atomic.Int64
	acked  atomic.Int64
	write  []float64 // due → acknowledged, ms
	store  []float64 // AppendRows call alone, ms
	late   []float64 // due → call started, ms
	errs   []string
}

func (a *appender) run(li *catalog.Table, spans *spanLog, r *rand.Rand, base int64, start time.Time, stop <-chan struct{}) {
	ship := tpch.Date(1998, 9, 3) // after Q1's cutoff
	key := base
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * appendEvery)
		if d := time.Until(due); d > 0 {
			select {
			case <-stop:
				return
			case <-time.After(d):
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		batch := make([][]int64, appendRows)
		for i := range batch {
			batch[i] = []int64{key, r.Int64N(2000), r.Int64N(100), ship + r.Int64N(80),
				1 + r.Int64N(50), 100 + r.Int64N(100000), r.Int64N(11), r.Int64N(3), r.Int64N(2)}
			key++
		}
		sp := spans.open(spans.newTrace(), 0, "storage.append")
		t0 := time.Now()
		a.issued.Add(appendRows)
		err := li.AppendRows(batch)
		done := time.Now()
		spans.close(sp)
		if err != nil {
			a.errs = append(a.errs, err.Error())
			continue
		}
		a.acked.Add(appendRows)
		a.rows = append(a.rows, batch)
		a.write = append(a.write, ms(done.Sub(due)))
		a.store = append(a.store, ms(done.Sub(t0)))
		a.late = append(a.late, ms(t0.Sub(due)))
	}
}

func (w *ingest) run(cfg *config, rep *report) error {
	win := openWindow(w.srv)
	li := w.srv.Catalog().MustTable("lineitem")
	app := &appender{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var wire []float64
	var clientMs float64
	start := rep.begin()
	deadline := start.Add(cfg.dur)
	wg.Add(1)
	go func() {
		defer wg.Done()
		app.run(li, rep.spans, rand.New(rand.NewPCG(cfg.seed, 0xa99)), w.base, start, stop)
	}()
	for time.Now().Before(deadline) {
		rep.attempted++
		lo := app.acked.Load()
		sp := rep.spans.open(rep.spans.newTrace(), 0, "server.read_pair")
		t0 := time.Now()
		n, elapsed, err := w.readPair()
		rt := time.Since(t0)
		rep.spans.close(sp)
		hi := app.issued.Load()
		if err != nil {
			rep.fail("read: %v", err)
			if connLost(err) {
				break
			}
			continue
		}
		if n < lo || n > hi {
			rep.fail("range count %d outside [%d acknowledged before, %d issued after]", n, lo, hi)
			continue
		}
		rep.lat = append(rep.lat, ms(rt))
		rep.at = append(rep.at, time.Since(start).Seconds())
		rep.ops++
		clientMs += ms(rt)
		wire = append(wire, ms(rt-elapsed))
	}
	close(stop)
	wg.Wait()
	rep.end(start)

	// Every append is an attempted operation; failed appends fail the run.
	rep.attempted += int64(len(app.rows) + len(app.errs))
	for _, e := range app.errs {
		rep.fail("append: %v", e)
	}
	if err := w.shutdownAndVerify(cfg, rep, app); err != nil {
		return err
	}

	sort.Float64s(app.write)
	sort.Float64s(app.store)
	sort.Float64s(app.late)
	// Writes are ten per second, so p90 is the highest percentile with ten
	// samples beyond it at a ten-second run.
	const wq = 0.9
	beyond := beyondCount(len(app.write), wq)
	rep.notef("writes: appends=%d rows=%d write p50=%.4fms tail=p%s:%.4fms (n=%d, %d beyond) store p50=%.4fms p99=%.4fms late max=%.4fms",
		len(app.rows), app.acked.Load(), quantile(app.write, 0.5), pctName(wq), quantile(app.write, wq),
		len(app.write), beyond, quantile(app.store, 0.5), quantile(app.store, 0.99), last(app.late))
	if !cfg.traced {
		return nil
	}
	L := rep.layer
	L["ingest.write_p50_ms"] = quantile(app.write, 0.5)
	L["ingest.write_tail_ms"] = quantile(app.write, wq)
	L["ingest.write_late_ms"] = last(app.late)
	L["storage.append_ms_p50"] = quantile(app.store, 0.5)
	L["storage.append_ms_p99"] = quantile(app.store, 0.99)
	L["storage.open_s"] = w.openS
	sort.Float64s(wire)
	L["server.wire_overhead_ms"] = quantile(wire, 0.5)
	var parse []float64
	for i := 0; i < 50; i++ {
		t0 := time.Now()
		if _, err := repro.ParseSQL(w.rangeSQ, w.srv.Catalog(), repro.SQLOptions{}); err != nil {
			return err
		}
		parse = append(parse, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	sort.Float64s(parse)
	L["sqlmini.parse_us"] = quantile(parse, 0.5)
	return win.layers(rep, clientMs)
}

// shutdownAndVerify flushes the server, measures the directory, and
// reopens it with a fresh catalog to check that every acknowledged row is
// present exactly once.
func (w *ingest) shutdownAndVerify(cfg *config, rep *report, app *appender) error {
	if err := w.disconnect(); err != nil {
		return err
	}
	values := 0
	for _, name := range w.srv.Catalog().Names() {
		t := w.srv.Catalog().MustTable(name)
		values += len(t.Rows) * len(t.ColNames)
	}
	sp := rep.spans.open(rep.spans.newTrace(), 0, "storage.flush")
	t0 := time.Now()
	if err := w.srv.Shutdown(); err != nil {
		return fmt.Errorf("shutdown flush: %w", err)
	}
	flush := time.Since(t0)
	rep.spans.close(sp)
	var diskBytes int64
	err := filepath.WalkDir(w.dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		diskBytes += info.Size()
		return nil
	})
	if err != nil {
		return err
	}
	userBytes := float64(values) * 8
	rep.notef("storage: flush=%.3fms disk=%d bytes user=%.0f bytes bytes_per_user_byte=%.4f open=%.4fs",
		ms(flush), diskBytes, userBytes, float64(diskBytes)/userBytes, w.openS)
	if cfg.traced {
		rep.layer["storage.flush_ms"] = ms(flush)
		rep.layer["storage.disk_bytes"] = float64(diskBytes)
		rep.layer["ingest.bytes_per_user_byte"] = float64(diskBytes) / userBytes
	}

	cat := schemaCatalog()
	sp = rep.spans.open(rep.spans.newTrace(), 0, "storage.reopen")
	_, err = cat.BindDir(w.dir, catalog.DefaultHistogramBuckets)
	rep.spans.close(sp)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	seen := map[int64][]int64{}
	dups := 0
	for _, r := range cat.MustTable("lineitem").Rows {
		if r[0] < w.base {
			continue
		}
		if _, ok := seen[r[0]]; ok {
			dups++
		}
		seen[r[0]] = r
	}
	if err := cat.FlushDir(); err != nil {
		return fmt.Errorf("close reopened stores: %w", err)
	}
	for _, batch := range app.rows {
		ok := true
		for _, want := range batch {
			got, found := seen[want[0]]
			if !found || !slices.Equal(got, want) {
				ok = false
			}
			delete(seen, want[0])
		}
		if !ok {
			rep.fail("acknowledged append of keys %d.. missing or altered after reopen", batch[0][0])
		}
	}
	if dups > 0 || len(seen) > 0 {
		rep.fail("reopen holds %d duplicate and %d unacknowledged appended rows", dups, len(seen))
	}
	rep.notef("reopen: verified %d acknowledged rows", app.acked.Load())
	return os.RemoveAll(w.dir)
}

func last(sorted []float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[len(sorted)-1]
}

func (w *ingest) close() error {
	err := w.wireRig.close()
	if e := os.RemoveAll(w.dir); err == nil {
		err = e
	}
	return err
}
