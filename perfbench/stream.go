package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"time"

	"repro"
	"repro/internal/aqp"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/linearroad"
	"repro/internal/relalg"
	"repro/internal/server"
)

const (
	streamCars       = 150
	streamFillSlices = 60 // the windows' longest span is 60 s of 1-s slices
	// streamCheckEvery is the sampling rate of the reference comparison;
	// the reference re-executes the slice, so checking every slice would
	// double the run.
	streamCheckEvery = 4
)

// stream drives the paper's §5.4 loop through a server session: each slice
// generates one second of Linear Road reports, ingests them into the
// windows, materializes the window tables and executes SegTollS.
type stream struct {
	gen  *linearroad.Gen
	win  *linearroad.Windows
	srv  *server.Server
	st   *server.Stmt
	ref  *aqp.Controller
	next int64 // next stream second
}

func setupStream(cfg *config) (instance, error) {
	w := &stream{gen: linearroad.NewGen(cfg.seed, streamCars), win: linearroad.NewWindows()}
	srv, err := server.New(w.win.Catalog(), server.Options{
		Parallelism: runtime.NumCPU(),
		TraceEvents: traceRing(cfg, 100), // a few per slice
	})
	if err != nil {
		return nil, err
	}
	w.srv = srv
	q := linearroad.SegTollS()
	for ; w.next < streamFillSlices; w.next++ {
		w.win.Ingest(w.gen.Slice(w.next, w.next+1))
		w.win.Materialize()
		if w.st == nil {
			if w.st, err = srv.Session().PrepareQuery(q); err != nil {
				return nil, err
			}
		}
		if _, err := w.st.Exec(); err != nil {
			return nil, err
		}
	}
	// The reference executes a plan fixed at the end of set-up by an
	// optimizer of its own, with no server and no feedback.
	opt, err := repro.NewOptimizer(q, w.win.Catalog())
	if err != nil {
		return nil, err
	}
	plan, err := opt.Optimize()
	if err != nil {
		return nil, err
	}
	w.ref, err = aqp.NewController(aqp.Config{
		Query: q, Cat: w.win.Catalog(), Params: cost.DefaultParams(),
		Space: relalg.DefaultSpace(), Pruning: core.PruneAll,
		Strategy: aqp.Static, StaticPlan: plan,
	})
	if err != nil {
		return nil, err
	}
	return w, nil
}

func (w *stream) run(cfg *config, rep *report) error {
	win := openWindow(w.srv)
	r := rand.New(rand.NewPCG(cfg.seed, 0x5e9))
	var busy time.Duration
	var clientMs float64
	var matMs []float64
	var windowRows, checked int
	start := rep.begin()
	for busy < cfg.dur {
		rep.attempted++
		trace := rep.spans.newTrace()
		slice := rep.spans.open(trace, 0, "stream.slice")
		t0 := time.Now()
		sp := rep.spans.open(trace, slice.ID, "linearroad.gen")
		rows := w.gen.Slice(w.next, w.next+1)
		rep.spans.close(sp)
		w.next++
		sp = rep.spans.open(trace, slice.ID, "linearroad.materialize")
		t1 := time.Now()
		w.win.Ingest(rows)
		w.win.Materialize()
		mat := time.Since(t1)
		rep.spans.close(sp)
		sp = rep.spans.open(trace, slice.ID, "server.exec")
		res, err := w.st.Exec()
		rep.spans.close(sp)
		lat := time.Since(t0)
		rep.spans.close(slice)
		busy += lat
		if err != nil {
			rep.fail("slice %d: %v", w.next-1, err)
			continue
		}
		rep.lat = append(rep.lat, ms(lat))
		rep.at = append(rep.at, busy.Seconds())
		rep.ops++
		clientMs += ms(lat)
		matMs = append(matMs, ms(mat))
		for rel := range linearroad.WindowTables {
			windowRows += len(w.win.Data(rel))
		}
		if r.IntN(streamCheckEvery) == 0 {
			checked++
			want, err := w.ref.RunSlice(w.win.Data)
			if err != nil {
				return fmt.Errorf("reference slice %d: %w", w.next-1, err)
			}
			if got := int64(len(res.Rows)); got != want.Rows {
				rep.fail("slice %d: %d result rows, reference %d", w.next-1, got, want.Rows)
			} else if got, want := digestRows(res.Rows), segTollOracle(w.win.Data); got != want {
				rep.fail("slice %d: result %+v differs from the oracle's %+v", w.next-1, got, want)
			}
		}
	}
	rep.end(start)
	rep.busy = busy
	rep.notef("slices=%d (stream seconds %d..%d) checked=%d against the static-plan reference",
		rep.ops, streamFillSlices, w.next, checked)
	sort.Float64s(matMs)
	rep.notef("linearroad: ingest+materialize p50=%.3fms, share of slice latency=%.3f",
		quantile(matMs, 0.5), sum(matMs)/clientMs)
	if !cfg.traced {
		return nil
	}
	rep.layer["linearroad.materialize_ms"] = quantile(matMs, 0.5)
	rep.layer["catalog.window_rows"] = float64(windowRows) / float64(max(rep.ops, 1))
	return win.layers(rep, clientMs)
}

func (w *stream) close() error { return w.srv.Shutdown() }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// segTollOracle computes SegTollS over the current windows directly from
// its definition (linearroad.SegTollS), sharing no code with the optimizer
// or the executor: for each r2 segment on direction 0 that r1 also holds,
// the distinct r5 positions of the cars that r3 places on direction 0 of
// the same expressway, strictly ahead of the segment by fewer than ten
// segments, and that appear in r4 and r5.
func segTollOracle(data func(rel int) [][]int64) digest {
	const (
		cExp = linearroad.ColExpway
		cDir = linearroad.ColDir
		cSeg = linearroad.ColSeg
		cCar = linearroad.ColCarID
		cPos = linearroad.ColXPos
	)
	type seg struct{ exp, dir, seg int64 }
	inR1 := map[seg]bool{}
	for _, r := range data(0) {
		inR1[seg{r[cExp], r[cDir], r[cSeg]}] = true
	}
	inR4 := map[int64]bool{}
	for _, r := range data(3) {
		inR4[r[cCar]] = true
	}
	pos5 := map[int64][]int64{}
	for _, r := range data(4) {
		pos5[r[cCar]] = append(pos5[r[cCar]], r[cPos])
	}
	var r3 [][]int64
	for _, r := range data(2) {
		if r[cDir] == 0 && inR4[r[cCar]] && len(pos5[r[cCar]]) > 0 {
			r3 = append(r3, r)
		}
	}
	var rows [][]int64
	for _, r2 := range data(1) {
		g := seg{r2[cExp], r2[cDir], r2[cSeg]}
		if g.dir != 0 || !inR1[g] {
			continue
		}
		distinct := map[int64]bool{}
		for _, r := range r3 {
			if r[cExp] == g.exp && g.seg < r[cSeg] && g.seg > r[cSeg]-10 {
				for _, x := range pos5[r[cCar]] {
					distinct[x] = true
				}
			}
		}
		if len(distinct) > 0 {
			rows = append(rows, []int64{g.exp, g.dir, g.seg, int64(len(distinct))})
		}
	}
	var d digest
	for _, r := range rows {
		d.addRow(r)
	}
	return d
}
