// Package locservice implements the paper's driving application: a
// quorum-based location service for ad hoc networks (Sections 1, 9.2).
// Every participating node periodically advertises its own location to an
// advertise quorum; any node can resolve any other node's location through
// a lookup quorum. No geographic knowledge is used by the quorums
// themselves.
//
// Refreshing follows the degradation-rate analysis of Section 6.1: given
// the system's initial non-intersection probability ε, the minimum
// acceptable intersection probability, and the expected churn rate, the
// service derives how often each mapping must be re-advertised
// (analysis.RefreshIntervalFor) and re-publishes on that cadence.
package locservice

import (
	"fmt"
	"sort"

	"probquorum/internal/analysis"
	"probquorum/internal/netstack"
	"probquorum/internal/quorum"
	"probquorum/internal/sim"
)

// Config tunes the service.
type Config struct {
	// Epsilon is the quorum system's design non-intersection probability
	// (from the configured quorum sizes; default derived from them).
	Epsilon float64
	// MinIntersection is the lowest acceptable lookup success
	// probability before a refresh is due (default 0.9·(1−ε)).
	MinIntersection float64
	// ChurnPerSecond is the expected fraction of the network that churns
	// per second, used to convert the tolerable churn fraction into a
	// refresh period. Zero disables automatic refresh.
	ChurnPerSecond float64
	// MinRefreshSecs floors the refresh period (default 10 s).
	MinRefreshSecs float64
	// PositionOf renders a node's advertised location string. The
	// default reports the node id's coarse grid cell from the network's
	// mobility model.
	PositionOf func(id int) string
}

// Service runs the location service over a quorum system. Nodes register
// with Publish; lookups resolve registered nodes' most recent locations.
type Service struct {
	sys    *quorum.System
	net    *netstack.Network
	engine *sim.Engine
	cfg    Config

	refreshSecs float64
	tickers     map[int]*sim.Ticker

	// Refreshes counts automatic re-advertisements.
	Refreshes int
}

// New creates the service. The quorum system's sizes determine ε when
// Config.Epsilon is zero.
func New(sys *quorum.System, net *netstack.Network, cfg Config) *Service {
	if cfg.Epsilon == 0 {
		qc := sys.Config()
		cfg.Epsilon = quorum.NonIntersectProb(net.N(), qc.AdvertiseSize, qc.LookupSize)
	}
	if cfg.MinIntersection == 0 {
		cfg.MinIntersection = 0.9 * (1 - cfg.Epsilon)
	}
	if cfg.MinRefreshSecs == 0 {
		cfg.MinRefreshSecs = 10
	}
	if cfg.PositionOf == nil {
		cfg.PositionOf = func(id int) string {
			p := net.Position(id)
			return fmt.Sprintf("cell-%d-%d", int(p.X)/200, int(p.Y)/200)
		}
	}
	s := &Service{
		sys: sys, net: net, engine: net.Engine(), cfg: cfg,
		tickers: make(map[int]*sim.Ticker),
	}
	s.refreshSecs = s.derivedRefresh()
	return s
}

// derivedRefresh converts the Section 6.1 tolerable churn fraction into a
// wall-clock refresh period.
func (s *Service) derivedRefresh() float64 {
	if s.cfg.ChurnPerSecond <= 0 {
		return 0 // no automatic refresh
	}
	f := analysis.RefreshIntervalFor(s.cfg.Epsilon, s.cfg.MinIntersection)
	period := f / s.cfg.ChurnPerSecond
	if period < s.cfg.MinRefreshSecs {
		period = s.cfg.MinRefreshSecs
	}
	return period
}

// RefreshPeriod returns the derived re-advertisement period in seconds
// (0 when automatic refresh is disabled).
func (s *Service) RefreshPeriod() float64 { return s.refreshSecs }

// key is the dictionary key for a node's location mapping.
func key(id int) string { return fmt.Sprintf("loc/%d", id) }

// Publish registers node id with the service: it advertises the node's
// current location now and, when a churn rate is configured, re-advertises
// every RefreshPeriod (with a random phase to desynchronize publishers).
func (s *Service) Publish(id int) {
	s.advertise(id)
	if s.refreshSecs <= 0 {
		return
	}
	if _, exists := s.tickers[id]; exists {
		return
	}
	phase := s.engine.Rand().Float64() * s.refreshSecs
	s.tickers[id] = sim.NewTicker(s.engine, phase, s.refreshSecs, func() {
		if s.net.Alive(id) {
			s.Refreshes++
			s.advertise(id)
		}
	})
}

// Stop halts every publisher's refresh ticker — service teardown at the
// end of a scenario. The ticker map's iteration order is randomized, so
// the teardown walks a sorted key snapshot; each Stop cancels an engine
// event, and replays stay bit-identical only if those cancellations happen
// in a fixed order.
func (s *Service) Stop() {
	ids := make([]int, 0, len(s.tickers))
	for id := range s.tickers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		s.tickers[id].Stop()
		delete(s.tickers, id)
	}
}

func (s *Service) advertise(id int) {
	s.sys.Advertise(id, key(id), s.cfg.PositionOf(id), nil)
}

// LookupResult is a location query's outcome.
type LookupResult struct {
	// Found reports whether the target's mapping was located.
	Found bool
	// Location is the advertised location string.
	Location string
	// Latency is the lookup latency in seconds.
	Latency float64
}

// Locate resolves target's location from node origin. done fires once.
func (s *Service) Locate(origin, target int, done func(LookupResult)) {
	s.sys.Lookup(origin, key(target), func(r quorum.LookupResult) {
		if done != nil {
			done(LookupResult{Found: r.Hit, Location: r.Value, Latency: r.Latency})
		}
	})
}
