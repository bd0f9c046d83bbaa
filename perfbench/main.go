// Command perfbench is the repository's end-to-end benchmark. One process
// runs one workload against the query service through its public entry
// points, checks every output it can, and prints the metrics named in
// BENCHMARK.json as the last line of standard output:
//
//	bash perfbench/run.sh --workload serve-tpch --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run; --trace 1
// runs the same workload with the server's lifecycle events and the
// benchmark's own spans on, and reports the per-layer metrics instead.
// See README.md for the workloads, the metric definitions and the
// layer-to-end-to-end mapping.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// setupRepeats is how many times a run builds its workload from scratch;
// setup_s is the median, and only the last instance is measured.
const setupRepeats = 3

// config is what one run is asked to do.
type config struct {
	seed    uint64
	dur     time.Duration
	traced  bool
	workdir string // scratch space for data directories and span files
	out     io.Writer
}

// workload builds a fresh, fully set-up instance of one traffic mix.
type workload struct {
	name string
	// tail is the percentile latency_tail_ms reports, taken in each of
	// tailWindows windows of equal duration; the metric is the median over
	// the windows. The percentile is the highest of p90, p99 and p99.9
	// that leaves at least ten samples beyond it in every window of a run
	// of run_seconds on a two-core machine, and it is fixed per workload so
	// that runs of different speed report the same percentile.
	tail        float64
	tailWindows int
	setup       func(cfg *config) (instance, error)
}

// instance is a set-up workload, ready to measure.
type instance interface {
	// run measures for cfg.dur, checks outputs and fills rep.
	run(cfg *config, rep *report) error
	close() error
}

var workloads = []workload{
	{"serve-tpch", 0.99, 4, setupServeTPCH},
	{"adhoc-churn", 0.99, 4, setupAdhocChurn},
	{"stream-segtoll", 0.9, 1, setupStream},
	{"ingest-serve", 0.99, 4, setupIngest},
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_ops_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"max_rss_mb", "MB"},
}

// perLayer lists the metrics of a traced run, in BENCHMARK.json order. A
// layer a workload does not exercise reports 0.
var perLayer = []struct{ name, unit string }{
	{"server.wire_overhead_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.plan_cache_hit_ratio", "ratio"},
	{"server.evictions", "count"},
	{"sqlmini.parse_us", "us"},
	{"core.full_opt_ms", "ms"},
	{"core.full_opts", "count"},
	{"core.full_opt_share", "ratio"},
	{"core.repair_ms", "ms"},
	{"core.repairs", "count"},
	{"core.touched_per_repair", "count"},
	{"core.converged_ratio", "ratio"},
	{"fbstore.keys", "count"},
	{"fbstore.warm_seeds", "count"},
	{"aqp.est_err", "ln"},
	{"exec.exec_ms_p50", "ms"},
	{"exec.exec_ms_p99", "ms"},
	{"exec.share", "ratio"},
	{"exec.peak_mem_mb", "MB"},
	{"rescache.hit_ratio", "ratio"},
	{"rescache.invalidations", "count"},
	{"linearroad.materialize_ms", "ms"},
	{"catalog.window_rows", "count"},
	{"storage.append_ms_p50", "ms"},
	{"storage.append_ms_p99", "ms"},
	{"storage.open_s", "s"},
	{"storage.flush_ms", "ms"},
	{"storage.disk_bytes", "bytes"},
	{"ingest.write_p50_ms", "ms"},
	{"ingest.write_tail_ms", "ms"},
	{"ingest.write_late_ms", "ms"},
	{"ingest.bytes_per_user_byte", "ratio"},
	{"trace.latency_p50_ms", "ms"},
	{"trace.throughput_ops_s", "1/s"},
	{"trace.events", "count"},
	{"trace.spans", "count"},
}

func main() {
	name := flag.String("workload", "", "workload to run: serve-tpch, adhoc-churn, stream-segtoll, ingest-serve")
	seed := flag.Uint64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 10, "measured run length in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	workdir := flag.String("workdir", ".bench_build", "scratch directory for data directories and span files")
	flag.Parse()

	cfg := &config{
		seed:    *seed,
		dur:     time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		workdir: *workdir,
		out:     os.Stdout,
	}
	if *trace != 0 && *trace != 1 {
		fail("--trace must be 0 or 1")
	}
	if cfg.dur <= 0 {
		fail("--seconds must be positive")
	}
	w, ok := findWorkload(*name)
	if !ok {
		fail(fmt.Sprintf("unknown workload %q", *name))
	}
	res, err := runWorkload(w, cfg)
	if err != nil {
		fail(err.Error())
	}
	blob, err := json.Marshal(res)
	if err != nil {
		fail(err.Error())
	}
	fmt.Println(string(blob))
}

func fail(msg string) {
	fmt.Fprintf(os.Stderr, "perfbench: %s\n", msg)
	os.Exit(1)
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runWorkload sets the workload up setupRepeats times, measures the last
// instance, and assembles the result for the requested mode.
func runWorkload(w workload, cfg *config) (*result, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.workdir = dir

	var setups []float64
	var inst instance
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		inst, err = w.setup(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	runtime.GC()
	debug.FreeOSMemory()

	rep := newReport(cfg.traced)
	runErr := inst.run(cfg, rep)
	closeErr := inst.close()
	if runErr != nil {
		return nil, fmt.Errorf("%s: %w", w.name, runErr)
	}
	if closeErr != nil {
		return nil, fmt.Errorf("%s close: %w", w.name, closeErr)
	}
	if rep.ops == 0 {
		return nil, fmt.Errorf("%s: no operation completed", w.name)
	}

	lat := append([]float64(nil), rep.lat...)
	sort.Float64s(lat)
	p50 := quantile(lat, 0.5)
	tail, beyond := windowedTail(rep.lat, rep.at, w.tail, w.tailWindows)
	if beyond < 10 {
		rep.notef("WARNING: a window has only %d samples beyond p%s; the tail is not resolved at this run length", beyond, pctName(w.tail))
	}
	tput := float64(rep.ops) / rep.busy.Seconds()

	fmt.Fprintf(cfg.out, "workload=%s seed=%d seconds=%g traced=%t\n", w.name, cfg.seed, cfg.dur.Seconds(), cfg.traced)
	fmt.Fprintf(cfg.out, "setup_s: runs=%s median=%.4f\n", floats(setups), median(setups))
	fmt.Fprintf(cfg.out, "ops=%d attempted=%d failed=%d failed_ratio=%.6f busy=%.3fs throughput=%.2f/s\n",
		rep.ops, rep.attempted, rep.failed, float64(rep.failed)/float64(max(rep.attempted, 1)), rep.busy.Seconds(), tput)
	fmt.Fprintf(cfg.out, "latency_ms: p50=%.4f tail=p%s:%.4f (n=%d in %d windows, at least %d samples beyond in each) max=%.4f\n",
		p50, pctName(w.tail), tail, len(lat), w.tailWindows, beyond, lat[len(lat)-1])
	for _, n := range rep.notes {
		fmt.Fprintln(cfg.out, n)
	}
	for _, e := range rep.errs {
		fmt.Fprintf(cfg.out, "FAILED CHECK: %s\n", e)
	}

	res := &result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metric{},
	}
	if !cfg.traced {
		vals := map[string]float64{
			"setup_s":          median(setups),
			"throughput_ops_s": tput,
			"latency_p50_ms":   p50,
			"latency_tail_ms":  tail,
			"max_rss_mb":       rep.maxRSS / (1 << 20),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
		return res, nil
	}
	rep.layer["trace.latency_p50_ms"] = p50
	rep.layer["trace.throughput_ops_s"] = tput
	rep.layer["trace.spans"] = float64(len(rep.spans.spans))
	if err := rep.spans.write(filepath.Join(filepath.Dir(dir), fmt.Sprintf("spans-%s-%d.jsonl", w.name, cfg.seed))); err != nil {
		return nil, err
	}
	fmt.Fprint(cfg.out, rep.spans.summary())
	for _, m := range perLayer {
		v := rep.layer[m.name]
		fmt.Fprintf(cfg.out, "layer %-28s %14.6f %s\n", m.name, v, m.unit)
		res.Metrics[m.name] = metric{v, m.unit}
	}
	return res, nil
}

// report accumulates one measured run.
type report struct {
	lat       []float64 // client-observed latency per completed operation, ms
	at        []float64 // completion time of each operation, s into the phase
	ops       int64     // completed operations
	busy      time.Duration
	attempted int64
	failed    int64
	errs      []string // first few check failures, for the human report
	maxRSS    float64  // bytes: median of the one-second peaks of the measured phase
	notes     []string
	layer     map[string]float64
	spans     *spanLog

	rss *rssSampler
}

func newReport(traced bool) *report {
	r := &report{layer: map[string]float64{}}
	if traced {
		r.spans = &spanLog{}
	}
	return r
}

// begin starts the measured phase.
func (r *report) begin() time.Time {
	r.rss = startRSSSampler()
	return time.Now()
}

// end stops the measured phase begun at start; busy defaults to wall time.
func (r *report) end(start time.Time) {
	r.busy = time.Since(start)
	peaks := r.rss.stop()
	if len(peaks) > 1 {
		peaks = peaks[:len(peaks)-1] // drop the partial last window
	}
	r.maxRSS = median(peaks)
	sort.Float64s(peaks)
	r.notef("rss: median of %d one-second peaks=%.1fMB highest=%.1fMB", len(peaks), r.maxRSS/(1<<20), peaks[len(peaks)-1]/(1<<20))
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts one failed operation and keeps its reason for the report.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 10 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// quantile returns the nearest-rank q-quantile of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// windowedTail splits the samples into n windows of equal duration by
// completion time and returns the median over the windows of each window's
// q-quantile, with the fewest samples any window has beyond it.
func windowedTail(lat, at []float64, q float64, n int) (float64, int) {
	span := 0.0
	for _, t := range at {
		span = max(span, t)
	}
	if span == 0 {
		span = 1
	}
	windows := make([][]float64, n)
	for i, x := range lat {
		k := min(int(at[i]/span*float64(n)), n-1)
		windows[k] = append(windows[k], x)
	}
	tails := make([]float64, n)
	fewest := len(lat)
	for i, win := range windows {
		sort.Float64s(win)
		tails[i] = quantile(win, q)
		fewest = min(fewest, beyondCount(len(win), q))
	}
	return median(tails), fewest
}

// beyondCount is the number of n sorted samples above the nearest-rank
// q-quantile.
func beyondCount(n int, q float64) int {
	return n - int(q*float64(n)+0.999999999)
}

func pctName(q float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.2f", q*100), "0"), ".")
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func floats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
