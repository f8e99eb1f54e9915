package quorum

import (
	"math"

	"probquorum/internal/analysis"
	"probquorum/internal/membership"
	"probquorum/internal/sim"
)

// The adaptation controller closes the loop the paper leaves open: §6.3
// estimates n, Lemma 5.6 sizes the quorums, and §6.1 bounds the decay —
// but the paper's system is sized once, offline. Controller re-derives the
// configuration continuously from *observed* quantities:
//
//   - |Qa| and |Qℓ| from the continuous size estimate n̂ via Corollary 5.3,
//     at the Lemma 5.6 cost-optimal ratio computed from the observed
//     lookup:advertise rate ratio τ̂ (not the configured workload);
//   - the re-advertise period from the observed churn rate λ̂, by inverting
//     the §6.1 decay bound into a Timed-Quorum-style validity window
//     (analysis.ReadvertiseInterval).
//
// Stability over reactivity: the controller skips any period whose estimate
// still covers the applied configuration (confidence-band hysteresis), and
// slew-clamps each applied change, so estimator jitter can never make the
// sizes oscillate. Its cadence is a deterministic engine ticker — never
// wall clock — so adaptive runs remain bit-identical at any parallelism.

// EstimateSource supplies the controller's network-size readings. The
// membership service's AggregateEstimate is the production source; tests
// substitute stubs.
type EstimateSource interface {
	AggregateEstimate() membership.Estimate
}

// AdaptConfig parameterizes the controller. What no caller varies is a
// constant beside its use.
type AdaptConfig struct {
	// MaxReadvertiseSecs caps the derived re-advertise window (default 600).
	MaxReadvertiseSecs float64
}

// adaptEpsilon is the target non-intersection probability the sizes must
// keep satisfying via Corollary 5.3.
const adaptEpsilon = 0.1

// AdaptStatus is a snapshot of the controller's state for reporting.
type AdaptStatus struct {
	// NHat is the estimate behind the last control decision (0 before the
	// first usable one); AtLeast marks it a lower bound.
	NHat    float64
	AtLeast bool
	// Tau and FailRate are the current EWMA rate observations.
	Tau, FailRate float64
	// AdvertiseSize, LookupSize, and ReadvertiseSecs mirror the system's
	// applied configuration.
	AdvertiseSize, LookupSize int
	ReadvertiseSecs           float64
	// Resizes, Retunes, and Skips count control decisions.
	Resizes, Retunes, Skips int
}

// Controller is the closed-loop adapter. Construct with NewController; it
// runs on an engine ticker until Stop.
type Controller struct {
	sys    *System
	src    EstimateSource
	cfg    AdaptConfig
	ticker *sim.Ticker

	// nApplied is the network size the applied sizes are built for —
	// derived back from the sizes via Corollary 5.3, so slew-clamped
	// partial steps keep adapting until the product actually covers n̂.
	nApplied float64
	tau, lam float64
	tauInit  bool
	lamInit  bool

	failCount            int
	lastAds, lastLookups int64
	lastTime             float64

	resizes, retunes, skips int
	nHat                    float64
	atLeast                 bool

	onResize func(advertiseSize, lookupSize int)
}

// adaptPeriodSecs is the control cadence.
const adaptPeriodSecs = 20

// NewController attaches a controller to sys, reading estimates from src,
// and starts its control ticker (first decision after one full period, so
// the estimator has evidence).
func NewController(sys *System, src EstimateSource, cfg AdaptConfig) *Controller {
	if cfg.MaxReadvertiseSecs <= 0 {
		cfg.MaxReadvertiseSecs = 600
	}
	c := &Controller{
		sys: sys, src: src, cfg: cfg,
		lastTime: sys.engine.Now(),
	}
	c.nApplied = c.impliedN(sys.cfg.AdvertiseSize, sys.cfg.LookupSize)
	c.lastAds, c.lastLookups = sys.IssuedOps()
	c.ticker = sim.NewTicker(sys.engine, adaptPeriodSecs, adaptPeriodSecs, c.step)
	return c
}

// Stop halts the control loop.
func (c *Controller) Stop() { c.ticker.Stop() }

// NoteFail feeds one observed node failure into the churn-rate meter (wire
// it to churn.Process.OnFail — the failure-detection signal §6.2 assumes).
func (c *Controller) NoteFail() { c.failCount++ }

// OnResize registers a hook observing every applied resize (the check
// package arms its sizing invariant here).
func (c *Controller) OnResize(fn func(advertiseSize, lookupSize int)) { c.onResize = fn }

// Status snapshots the controller for reporting.
func (c *Controller) Status() AdaptStatus {
	return AdaptStatus{
		NHat: c.nHat, AtLeast: c.atLeast,
		Tau: c.tau, FailRate: c.lam,
		AdvertiseSize:   c.sys.cfg.AdvertiseSize,
		LookupSize:      c.sys.cfg.LookupSize,
		ReadvertiseSecs: c.sys.cfg.ReadvertiseSecs,
		Resizes:         c.resizes, Retunes: c.retunes, Skips: c.skips,
	}
}

// impliedN is the network size a size pair covers at Epsilon per
// Corollary 5.3: n = |Qa|·|Qℓ| / ln(1/ε).
func (c *Controller) impliedN(qa, ql int) float64 {
	return float64(qa) * float64(ql) / math.Log(1/adaptEpsilon)
}

// step runs one control period: refresh the rate observations, read the
// estimate, and retune sizes and re-advertise window under hysteresis.
func (c *Controller) step() {
	now := c.sys.engine.Now()
	dt := now - c.lastTime
	c.lastTime = now
	c.observeRates(dt)

	est := c.src.AggregateEstimate()
	if !est.OK {
		c.skips++
		return
	}
	c.nHat, c.atLeast = est.N, est.AtLeast

	// An "at least" estimate that doesn't exceed the applied size carries
	// no new information (the applied configuration already covers it).
	if est.AtLeast && est.N <= c.nApplied {
		c.skips++
		return
	}
	// Confidence-band hysteresis: while the estimate still covers the
	// applied configuration, any deviation is indistinguishable from
	// estimator noise — never resize on it.
	if est.Lo <= c.nApplied && c.nApplied <= est.Hi {
		c.skips++
		c.retuneReadvertise(est.N)
		return
	}
	c.resize(est.N)
	c.retuneReadvertise(est.N)
}

// rateAlpha is the EWMA weight of each period's observed rates (τ̂, λ̂)
// against history.
const rateAlpha = 0.4

// observeRates folds one period's op-issue deltas and failure count into
// the EWMA rate estimates τ̂ and λ̂.
func (c *Controller) observeRates(dt float64) {
	ads, lookups := c.sys.IssuedOps()
	dAds, dLookups := ads-c.lastAds, lookups-c.lastLookups
	c.lastAds, c.lastLookups = ads, lookups
	if dAds > 0 && dLookups > 0 {
		inst := float64(dLookups) / float64(dAds)
		if !c.tauInit {
			c.tau, c.tauInit = inst, true
		} else {
			c.tau += rateAlpha * (inst - c.tau)
		}
	}
	if dt > 0 {
		inst := float64(c.failCount) / dt
		if !c.lamInit {
			c.lam, c.lamInit = inst, true
		} else {
			c.lam += rateAlpha * (inst - c.lam)
		}
	}
	c.failCount = 0
}

// maxStepFrac slew-clamps each applied resize to at most this relative
// change per period, so a step change in n̂ converges over
// ⌈log(size ratio)/log(1+maxStepFrac)⌉ periods instead of slamming the
// system.
const maxStepFrac = 0.5

// resize derives the Lemma 5.6 sizes for n̂, slew-clamps them against the
// applied sizes, and applies the change if it clears the dead band.
func (c *Controller) resize(nHat float64) {
	tau := c.tau
	if !c.tauInit || tau <= 0 {
		tau = 1 // no demand observed yet: assume symmetric
	}
	// Symmetric strategies: both per-member access costs are 1.
	qa, ql := OptimalSizes(int(math.Round(nHat)), adaptEpsilon, tau, 1, 1)
	qa = clampStep(c.sys.cfg.AdvertiseSize, qa, maxStepFrac)
	ql = clampStep(c.sys.cfg.LookupSize, ql, maxStepFrac)
	qa = c.clampSize(qa, nHat)
	ql = c.clampSize(ql, nHat)
	// Integer rounding is the resize dead band: the confidence-band gate
	// in step already filtered estimator noise, so any surviving integer
	// change is real. A relative dead band here could strand the sizes
	// just outside the band, skipping forever short of the target.
	if qa == c.sys.cfg.AdvertiseSize && ql == c.sys.cfg.LookupSize {
		c.skips++
		return
	}
	c.sys.Resize(qa, ql)
	c.nApplied = c.impliedN(qa, ql)
	c.resizes++
	if c.onResize != nil {
		c.onResize(qa, ql)
	}
}

// The re-advertise window: the intersection probability it must preserve
// under the observed churn, its floor, and the dead band around the applied
// period inside which a retune is skipped. targetIntersect must sit strictly
// below the sizing target 1−ε: the §6.1 inversion solves
// 1−ε^(1−f) = targetIntersect for the tolerable churned fraction f*, and at
// exactly 1−ε the budget is f* = 0 — any churn would pin the window at
// minReadvertiseSecs. Resizes are instead gated by the estimator's
// confidence band, so jitter cannot oscillate either.
const (
	targetIntersect    = 1 - 1.5*adaptEpsilon
	minReadvertiseSecs = 10
	hysteresisFrac     = 0.2
)

// retuneReadvertise re-derives the re-advertise window from the observed
// churn rate. Re-advertising that was disabled at construction stays
// disabled — the controller tunes the refresh loop, it doesn't create one.
func (c *Controller) retuneReadvertise(nHat float64) {
	if c.sys.cfg.ReadvertiseSecs <= 0 || !c.lamInit || c.lam <= 0 {
		return
	}
	t := analysis.ReadvertiseInterval(adaptEpsilon, targetIntersect, nHat, c.lam)
	t = min(max(t, minReadvertiseSecs), c.cfg.MaxReadvertiseSecs)
	if withinFrac(t, c.sys.cfg.ReadvertiseSecs, hysteresisFrac) {
		return
	}
	c.sys.SetReadvertiseSecs(t)
	c.sys.counters.ReadvertiseRetunes++
	c.retunes++
}

// minSize floors both quorum sizes.
const minSize = 2

// clampSize bounds a size to [minSize, round(nHat)] — a quorum larger than
// the (estimated) network is waste, smaller than the floor is noise.
func (c *Controller) clampSize(k int, nHat float64) int {
	if k < minSize {
		k = minSize
	}
	if max := int(math.Round(nHat)); k > max && max >= minSize {
		k = max
	}
	return k
}

// clampStep bounds want to within ±frac relative change of cur.
func clampStep(cur, want int, frac float64) int {
	if cur < 1 {
		return want
	}
	hi := int(math.Floor(float64(cur) * (1 + frac)))
	lo := int(math.Ceil(float64(cur) / (1 + frac)))
	if hi < cur+1 {
		hi = cur + 1 // integer floor must never stall a grow step
	}
	if lo > cur-1 {
		lo = cur - 1
	}
	if want > hi {
		return hi
	}
	if want < lo {
		return lo
	}
	return want
}

// withinFrac reports whether a is within the relative dead band around b.
func withinFrac(a, b, frac float64) bool {
	if b <= 0 {
		return a <= 0
	}
	return math.Abs(a-b) <= frac*b
}
