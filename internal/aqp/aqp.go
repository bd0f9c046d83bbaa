// Package aqp implements the adaptive query processing loop of §5.4: the
// data-partitioned model of Ives et al. [15], in which the system pauses at
// "split points" between stream slices, re-estimates costs from observed
// execution statistics, re-optimizes (incrementally or from scratch), and
// continues executing — migrating window state across plan switches in the
// manner of CAPS [26] (the windows are the shared state; operator state is
// rebuilt from them at a switch, and that rebuild cost is charged to
// execution time).
package aqp

import (
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/relalg"
)

// Strategy selects how the controller chooses plans at split points.
type Strategy int

const (
	// Incremental re-optimizes with the paper's incremental declarative
	// optimizer: only state affected by the feedback deltas is repaired.
	Incremental Strategy = iota
	// FullReopt re-runs a complete optimization from scratch at every
	// split point — the non-incremental comparator (Tukwila-style [15]).
	FullReopt
	// Static executes a fixed plan and never re-optimizes.
	Static
)

func (s Strategy) String() string {
	switch s {
	case Incremental:
		return "incremental"
	case FullReopt:
		return "full-reopt"
	case Static:
		return "static"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Config assembles a controller.
type Config struct {
	Query   *relalg.Query
	Cat     *catalog.Catalog // statistics source at construction time
	Params  cost.Params
	Space   relalg.SpaceOptions
	Pruning core.Pruning

	Strategy Strategy
	// Cumulative selects whether feedback factors are derived from
	// cumulatively averaged observations (the paper's AQP-Cumulative) or
	// from the last slice only (AQP-NonCumulative, which "fits" the plan
	// to local data characteristics).
	Cumulative bool
	// StaticPlan is required for Strategy == Static.
	StaticPlan *relalg.Plan
	// FeedbackThreshold suppresses feedback whose factor is within this
	// relative distance of the previously applied one (default 0.2): a
	// cost update that would not change any decision is not worth
	// propagating, and it is what lets re-optimization overhead converge
	// to zero as statistics stabilize (Figure 9).
	FeedbackThreshold float64
	// Parallelism caps the workers of the vectorized executor's
	// morsel-driven parallelism during slice execution — full fused
	// pipelines (scan → join probes → partial aggregation) where the plan
	// shape allows, parallel leaf scans otherwise; <= 1 is serial.
	// Feedback cardinalities are exact at any setting, so the adaptive
	// loop is unaffected by the parallelism choice.
	Parallelism int
	// MemBudgetBytes bounds each slice execution's tracked memory,
	// forwarded to exec.Compiler: hash joins and aggregations spill under
	// grace hashing instead of exceeding it. Feedback cardinalities are
	// byte-identical with spilling on or off, so the adaptive loop is
	// unaffected by the budget choice. 0 executes unbounded.
	MemBudgetBytes int64
}

// SliceResult reports one split-point round trip.
type SliceResult struct {
	Reopt    time.Duration
	Exec     time.Duration
	Rows     int64 // result rows produced
	Plan     *relalg.Plan
	Switched bool // plan differs from the previous slice's
	Touched  int  // optimizer entries touched by the incremental repair
	BestCost float64
}

// Controller drives the adaptive loop. Not safe for concurrent use.
type Controller struct {
	cfg   Config
	model *cost.Model
	opt   *core.Optimizer // Incremental strategy

	lastSig string
	first   bool

	cal     *Calibrator               // observation → factor calibration
	pending map[relalg.RelSet]float64 // staged factors for the next reopt
}

// NewController builds the controller. The cost model snapshots the
// catalog's statistics now ("the optimizer starts with zero statistical
// information" when the window tables are still empty); all later knowledge
// arrives through feedback factors.
func NewController(cfg Config) (*Controller, error) {
	m, err := cost.NewModel(cfg.Query, cfg.Cat, cfg.Params)
	if err != nil {
		return nil, err
	}
	if cfg.FeedbackThreshold == 0 {
		cfg.FeedbackThreshold = 0.2
	}
	c := &Controller{
		cfg: cfg, model: m, first: true,
		cal:     NewCalibrator(cfg.Cumulative, cfg.FeedbackThreshold),
		pending: map[relalg.RelSet]float64{},
	}
	if cfg.Strategy == Incremental {
		opt, err := core.New(m, cfg.Space, cfg.Pruning)
		if err != nil {
			return nil, err
		}
		c.opt = opt
	}
	if cfg.Strategy == Static && cfg.StaticPlan == nil {
		return nil, fmt.Errorf("aqp: Static strategy requires StaticPlan")
	}
	return c, nil
}

// Model exposes the controller's cost model (for inspection in tests).
func (c *Controller) Model() *cost.Model { return c.model }

// RunSlice performs one split-point round: re-optimize under the feedback
// staged from the previous slice, then execute the chosen plan over the
// current window contents supplied by data.
func (c *Controller) RunSlice(data func(rel int) [][]int64) (SliceResult, error) {
	var res SliceResult

	start := time.Now()
	var plan *relalg.Plan
	var err error
	switch c.cfg.Strategy {
	case Static:
		plan = c.cfg.StaticPlan
	case Incremental:
		for s, f := range c.pending {
			c.opt.UpdateCardFactor(s, f)
		}
		if c.first {
			plan, err = c.opt.Optimize()
		} else {
			plan, err = c.opt.Reoptimize()
		}
		if err == nil {
			res.Touched = c.opt.Metrics().TouchedEntries
		}
	case FullReopt:
		for s, f := range c.pending {
			c.model.SetCardFactor(s, f)
		}
		// A complete fresh optimization over the same model: all
		// state rebuilt from scratch, as a non-incremental
		// re-optimizer must.
		var opt *core.Optimizer
		opt, err = core.New(c.model, c.cfg.Space, c.cfg.Pruning)
		if err == nil {
			plan, err = opt.Optimize()
			res.Touched = opt.Metrics().TouchedEntries
		}
	}
	if err != nil {
		return res, err
	}
	clearMap(c.pending)
	res.Reopt = time.Since(start)
	res.Plan = plan
	res.BestCost = plan.Cost
	sig := plan.Signature()
	res.Switched = !c.first && sig != c.lastSig
	c.lastSig = sig
	c.first = false

	// Execute over the current windows with the vectorized executor and
	// collect actual cardinalities.
	start = time.Now()
	comp := &exec.Compiler{Q: c.cfg.Query, Cat: c.cfg.Cat, Data: data,
		Parallelism: c.cfg.Parallelism, MemBudgetBytes: c.cfg.MemBudgetBytes}
	v, stats, err := comp.CompileVec(plan)
	if err != nil {
		return res, err
	}
	n, err := exec.CountVec(v)
	if err != nil {
		return res, err
	}
	res.Exec = time.Since(start)
	res.Rows = n

	c.observe(stats)
	return res, nil
}

// observe converts the executed plan's actual cardinalities into staged
// feedback factors for the next split point, delegating the calibration
// math to the shared Calibrator (see calibrate.go). The pending map
// re-submits each changed factor at the next RunSlice, which stages the
// delta with the incremental optimizer (the model mutation itself is
// idempotent).
func (c *Controller) observe(stats *exec.RunStats) {
	if c.cfg.Strategy == Static {
		return
	}
	for set, f := range c.cal.Observe(stats.Snapshot(), c.model) {
		c.pending[set] = f
	}
}

// obsForTest exposes the most recent raw observation for an expression
// (test hook).
func (c *Controller) obsForTest(set relalg.RelSet) float64 { return c.cal.LastObs(set) }

func clearMap(m map[relalg.RelSet]float64) {
	for k := range m {
		delete(m, k)
	}
}
