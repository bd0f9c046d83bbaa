package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// ---- benchmark-side spans ----

// span is one timed call from the benchmark into a layer. Spans of one
// request share Trace; Parent is the ID of the enclosing span (0: none).
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog (the
// untraced run) records nothing.
type spanLog struct {
	mu     sync.Mutex
	origin time.Time
	nextID uint64
	spans  []span
}

// open starts a span and returns its handle; close it with spanLog.close.
func (l *spanLog) open(trace, parent uint64, name string) span {
	if l == nil {
		return span{}
	}
	l.mu.Lock()
	if l.origin.IsZero() {
		l.origin = time.Now()
	}
	l.nextID++
	id := l.nextID
	start := time.Since(l.origin).Nanoseconds()
	l.mu.Unlock()
	return span{Trace: trace, ID: id, Parent: parent, Name: name, Start: start}
}

// newTrace allocates a request identifier.
func (l *spanLog) newTrace() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextID++
	return l.nextID
}

func (l *spanLog) close(s span) {
	if l == nil {
		return
	}
	l.mu.Lock()
	s.End = time.Since(l.origin).Nanoseconds()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// write dumps the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// summary renders per-name span counts with total and self time, where a
// span's self time is its duration minus the time its children cover.
func (l *spanLog) summary() string {
	type agg struct {
		n           int
		total, self int64
	}
	child := map[uint64]int64{}
	for _, s := range l.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]*agg{}
	for _, s := range l.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.n++
		a.total += s.End - s.Start
		a.self += s.End - s.Start - child[s.ID]
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(&b, "span %-24s n=%-7d total=%10.3fms self=%10.3fms\n",
			n, a.n, float64(a.total)/1e6, float64(a.self)/1e6)
	}
	return b.String()
}

// ---- server-side lifecycle events and metrics ----

// serverWindow brackets the measured phase on one server: the metrics and
// trace sequence at its start.
type serverWindow struct {
	srv *server.Server
	m0  server.Metrics
	seq uint64
}

func openWindow(srv *server.Server) serverWindow {
	return serverWindow{srv: srv, m0: srv.Metrics(), seq: srv.Tracer().Seq()}
}

// traceRing sizes the lifecycle event ring so a whole run fits, from the
// most events per second the workload can emit, with a margin of two. The
// ring is not sized larger: the garbage collector scans all of it.
func traceRing(cfg *config, perSecond int) int {
	if !cfg.traced {
		return 0
	}
	return 2*int(cfg.dur.Seconds()*float64(perSecond)) + 4096
}

// layers derives the server, core, fbstore, aqp, exec and rescache
// metrics of the measured phase: counters as deltas of Metrics, latency
// distributions from the lifecycle events emitted inside the window.
// clientMs is the summed client-observed latency of the phase's operations.
func (w serverWindow) layers(rep *report, clientMs float64) error {
	m1 := w.srv.Metrics()
	tr := w.srv.Tracer()
	last := tr.Seq()
	events := tr.Since(w.seq)
	if uint64(len(events)) != last-w.seq {
		return fmt.Errorf("trace ring kept %d of %d events; enlarge it", len(events), last-w.seq)
	}
	var queue, execs, repairs []float64
	var touched int64
	for _, ev := range events {
		switch ev.Kind {
		case obs.KindQueueWait:
			queue = append(queue, ms(ev.Dur))
		case obs.KindExec:
			execs = append(execs, ms(ev.Dur))
		case obs.KindRepair:
			repairs = append(repairs, ms(ev.Dur))
			touched += ev.A
		}
	}
	sort.Float64s(queue)
	sort.Float64s(execs)
	sort.Float64s(repairs)
	L := rep.layer
	L["trace.events"] += float64(len(events))

	dExecs := float64(m1.Execs - w.m0.Execs)
	dMisses := float64(m1.Misses - w.m0.Misses)
	if dExecs > 0 {
		L["server.plan_cache_hit_ratio"] = 1 - dMisses/dExecs
		L["core.converged_ratio"] = float64(m1.Converged-w.m0.Converged) / dExecs
	}
	L["server.evictions"] = float64(m1.Evictions - w.m0.Evictions)
	L["server.queue_wait_ms"] = quantile(queue, 0.99)

	fullOpts := m1.FullOpts - w.m0.FullOpts
	fullOptMs := ms(m1.FullOptTime - w.m0.FullOptTime)
	L["core.full_opts"] = float64(fullOpts)
	if fullOpts > 0 {
		L["core.full_opt_ms"] = fullOptMs / float64(fullOpts)
	}
	L["core.repairs"] = float64(len(repairs))
	L["core.repair_ms"] = quantile(repairs, 0.5)
	if len(repairs) > 0 {
		L["core.touched_per_repair"] = float64(touched) / float64(len(repairs))
	}
	L["fbstore.keys"] = float64(m1.StatsKeys)
	L["fbstore.warm_seeds"] = float64(m1.WarmSeeds - w.m0.WarmSeeds)
	var estErr float64
	for _, e := range m1.PerEntry {
		estErr += e.EstErr
	}
	if len(m1.PerEntry) > 0 {
		L["aqp.est_err"] = estErr / float64(len(m1.PerEntry))
	}

	var execSum float64
	for _, e := range execs {
		execSum += e
	}
	L["exec.exec_ms_p50"] = quantile(execs, 0.5)
	L["exec.exec_ms_p99"] = quantile(execs, 0.99)
	L["exec.peak_mem_mb"] = float64(m1.PeakMem.P99) / (1 << 20)
	if clientMs > 0 {
		L["exec.share"] = execSum / clientMs
		L["core.full_opt_share"] = fullOptMs / clientMs
	}
	if m1.ResultCacheEnabled {
		hits := m1.ResultCache.Hits - w.m0.ResultCache.Hits
		misses := m1.ResultCache.Misses - w.m0.ResultCache.Misses
		if hits+misses > 0 {
			L["rescache.hit_ratio"] = float64(hits) / float64(hits+misses)
		}
		L["rescache.invalidations"] = float64(m1.ResultCache.Invalidations - w.m0.ResultCache.Invalidations)
	}
	rep.notef("server: execs=%d full-opts=%d (%.1fms) repairs=%d converged=%d evictions=%d stats-keys=%d warm-seeds=%d entries=%d",
		m1.Execs-w.m0.Execs, fullOpts, fullOptMs, len(repairs), m1.Converged-w.m0.Converged,
		m1.Evictions-w.m0.Evictions, m1.StatsKeys, m1.WarmSeeds-w.m0.WarmSeeds, m1.Entries)
	return nil
}

// ---- resident memory ----

// rssSampler polls the process's resident set size during the measured
// phase. It keeps the peak of every one-second window: the median of those
// peaks is max_rss_mb, steadier than the single highest sample, which
// depends on where one garbage collection happened to fall.
type rssSampler struct {
	stopc chan struct{}
	done  chan []float64
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stopc: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		var peaks []float64
		windowEnd := time.Now().Add(time.Second)
		peak := readRSS()
		for {
			select {
			case <-s.stopc:
				s.done <- append(peaks, max(peak, readRSS()))
				return
			case now := <-tick.C:
				peak = max(peak, readRSS())
				if now.After(windowEnd) {
					peaks = append(peaks, peak)
					peak, windowEnd = 0, now.Add(time.Second)
				}
			}
		}
	}()
	return s
}

// stop ends sampling and returns the per-window peaks in bytes; the last
// window may be partial.
func (s *rssSampler) stop() []float64 {
	close(s.stopc)
	return <-s.done
}

var pageSize = float64(os.Getpagesize())

// readRSS returns the current resident set size in bytes, falling back to
// the lifetime peak where /proc is unavailable.
func readRSS() float64 {
	if b, err := os.ReadFile("/proc/self/statm"); err == nil {
		f := strings.Fields(string(b))
		if len(f) > 1 {
			if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
				return pages * pageSize
			}
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		return float64(ru.Maxrss) * 1024
	}
	return 0
}
