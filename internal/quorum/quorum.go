// Package quorum implements the paper's contribution: probabilistic
// (bi)quorum systems for ad hoc networks with mix-and-match access
// strategies.
//
// A biquorum system pairs advertise quorums with lookup quorums; the
// mix-and-match lemma (Lemma 5.2) shows that as long as one side is chosen
// uniformly at random, the other may be picked arbitrarily — e.g. by a cheap
// random walk — while preserving Pr(miss) ≤ exp(−|Qa|·|Qℓ|/n). This package
// provides the five access strategies the paper studies (RANDOM,
// RANDOM-OPT, PATH, UNIQUE-PATH, FLOODING), a location-service store on top,
// and the paper's engineering techniques: random-walk salvation, reply-path
// reduction, reply-path local repair, early halting, and caching.
package quorum

import (
	"fmt"

	"probquorum/internal/aodv"
	"probquorum/internal/membership"
	"probquorum/internal/netstack"
	"probquorum/internal/sim"
)

// Strategy names a quorum access strategy (Section 4).
type Strategy int

// Access strategies.
const (
	// Random contacts uniformly sampled nodes through multihop routing,
	// using the membership service (Section 4.1).
	Random Strategy = iota + 1
	// RandomOpt is Random plus cross-layer processing at every node a
	// message transits (Section 4.5). Lookups need only ~ln n targets.
	RandomOpt
	// Path covers the quorum with a simple random walk (Section 4.2).
	Path
	// UniquePath covers the quorum with a self-avoiding random walk
	// (Section 4.3).
	UniquePath
	// Flooding covers the quorum with a TTL-scoped flood (Section 4.4).
	Flooding
	// ExpandingRing is Flooding's adaptive implementation (Section 4.4),
	// for lookups only: successive floods of growing TTL until a hit,
	// robust to unknown densities and topologies. New rejects it as an
	// advertise strategy.
	ExpandingRing
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case Random:
		return "RANDOM"
	case RandomOpt:
		return "RANDOM-OPT"
	case Path:
		return "PATH"
	case UniquePath:
		return "UNIQUE-PATH"
	case Flooding:
		return "FLOODING"
	case ExpandingRing:
		return "EXPANDING-RING"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// DrawsFromView reports whether s picks its members from the origin's
// membership view and reaches them through routing.
func (s Strategy) DrawsFromView() bool { return s == Random || s == RandomOpt }

// Config selects the strategy mix, the two sizes, the flood TTLs and which of
// the Section 6–7 techniques are on. What the paper fixes rather than varies
// is not a field but a constant beside its one use: payloadBytes (below),
// walkTTLFactor (walk.go), repairTTL (reply.go) and maxRingTTL (ring.go).
type Config struct {
	// AdvertiseStrategy and LookupStrategy pick the biquorum mix. Any
	// combination is legal except an ExpandingRing advertise; Lemma 5.2
	// guarantees the intersection bound whenever at least one side is
	// Random (or RandomOpt).
	AdvertiseStrategy, LookupStrategy Strategy
	// AdvertiseSize and LookupSize are target quorum sizes |Qa| and |Qℓ|
	// (distinct nodes to cover). For Flooding strategies the TTL fields
	// below are used instead.
	AdvertiseSize, LookupSize int
	// AdvertiseTTL and LookupTTL scope Flooding accesses.
	AdvertiseTTL, LookupTTL int
	// RandomOptTargets is how many routed messages a RandomOpt lookup
	// sends (paper: O(ln n) suffices, Section 8.2). Zero derives ln n.
	RandomOptTargets int
	// EarlyHalt stops a lookup walk at the first hit (Section 7.1).
	EarlyHalt bool
	// Salvation retries a failed walk forwarding through another
	// neighbor within the same step (Section 6.2).
	Salvation bool
	// ReplyPathReduction lets replies skip ahead along the recorded
	// reverse path when a later node is a direct neighbor (Section 7.2).
	ReplyPathReduction bool
	// ReplyLocalRepair repairs broken reverse paths with TTL-scoped
	// routing (Section 6.2). Without it, a broken reverse path drops the
	// reply (the Fig. 13 behaviour).
	ReplyLocalRepair bool
	// Caching lets nodes that relay replies cache the mapping as
	// bystanders (Section 7.1).
	Caching bool
	// Overhearing lets nodes in promiscuous mode answer walk lookups
	// they overhear for keys they hold (Section 7.2, the paper's
	// future-work optimization).
	Overhearing bool
	// LookupTimeout bounds how long a lookup waits for a reply before
	// reporting a miss (seconds).
	LookupTimeout float64
	// AdvertiseTimeoutSecs bounds how long an advertise may stay pending
	// before it is force-settled with whatever placements it achieved
	// (default 60). Walk-carried advertises (PATH, UNIQUE-PATH) settle
	// when the walk terminates — but a walk frame dropped at a receiver
	// (loss, partition, injected fault) vanishes without any terminal
	// event, which would otherwise leave the operation pending forever: a
	// callback that never fires and, under open-loop load, an unbounded
	// s.ads leak.
	AdvertiseTimeoutSecs float64
	// LookupRetries is how many times a timed-out lookup is retried with a
	// freshly drawn quorum before reporting the miss — the client-side
	// recovery for the degradation of Section 6.1. Zero disables retries.
	LookupRetries int
	// RetryBackoffSecs is the delay before the first retry; each further
	// retry doubles it (exponential backoff). Defaults to 1 when
	// LookupRetries is set.
	RetryBackoffSecs float64
	// ReadvertiseSecs, when positive, re-advertises every live owner's
	// keys with this period (TTL refresh), restoring replication lost to
	// crashed quorum members — the periodic re-establishment that Timed
	// Quorum Systems shows dynamic quorums need.
	ReadvertiseSecs float64
	// Merge, when set, resolves conflicting writes to the same key: on a
	// store that already holds old, the node keeps Merge(key, old, new)
	// instead of blindly overwriting. This is the version-number
	// mechanism of Section 6.1 ("a new value cannot be overwritten by an
	// older one"), used by the register package for read/write objects.
	Merge func(key, old, new string) string
}

// DefaultConfig returns the paper's default mix: RANDOM advertise of size
// 2√n with UNIQUE-PATH lookup of size 1.15√n is the combination the paper
// finds most efficient; the harness overrides sizes per experiment.
func DefaultConfig(n int) Config {
	return Config{
		AdvertiseStrategy:  Random,
		LookupStrategy:     UniquePath,
		AdvertiseSize:      AdvertiseSizeDefault(n),
		LookupSize:         LookupSizeFor(n, 0.9),
		EarlyHalt:          true,
		Salvation:          true,
		ReplyPathReduction: true,
		LookupTimeout:      30,
	}
}

// opID identifies one advertise or lookup operation.
type opID struct {
	Origin int
	Seq    uint32
}

// LookupResult reports the outcome of a lookup.
type LookupResult struct {
	// Hit is true when a reply carrying the value reached the origin.
	Hit bool
	// Value is the retrieved value on a hit.
	Value string
	// Intersected is true when the lookup quorum touched a node holding
	// the key, whether or not the reply survived the trip back. The gap
	// between Intersected and Hit is exactly the reply-path loss the
	// paper isolates in Fig. 13(b,c).
	Intersected bool
	// Latency is seconds from issue to reply (0 on a miss).
	Latency float64
}

// AdvertiseResult reports the outcome of an advertise.
type AdvertiseResult struct {
	// Requested is the target quorum size.
	Requested int
	// Placed is how many nodes stored the advertisement.
	Placed int
	// FailedSends counts member contacts that failed at the routing or
	// MAC layer.
	FailedSends int
}

// Counters aggregates protocol-level diagnostics across all operations.
type Counters struct {
	// Salvations counts walk forwardings saved by retrying a different
	// neighbor after a MAC failure.
	Salvations int
	// WalkDrops counts walks that died with no forwarding option.
	WalkDrops int
	// WalkExpirations counts walks terminated by the step cap before
	// covering their target (e.g. trapped in a small network pocket).
	WalkExpirations int
	// ReplyDrops counts replies abandoned on a broken reverse path.
	ReplyDrops int
	// LocalRepairs counts reply hops rescued by TTL-scoped routing.
	LocalRepairs int
	// FullRouteRepairs counts replies rescued by unscoped routing as the
	// last resort.
	FullRouteRepairs int
	// PathReductions counts reply hops skipped via path reduction.
	PathReductions int
	// Adaptations counts RANDOM member contacts redirected to a fresh
	// random node after a failure notification (Section 6.2).
	Adaptations int
	// CacheHits counts lookups answered from a bystander cache.
	CacheHits int
	// OwnerHits counts lookups answered by a node that owns the key (a
	// true advertise-quorum member, not a bystander cache) — the
	// owner/bystander split the load figure reports.
	OwnerHits int
	// AdvertiseTimeouts counts advertises force-settled by the
	// AdvertiseTimeoutSecs deadline because a quorum access (typically a
	// walk whose frame was dropped at a receiver) never terminated.
	AdvertiseTimeouts int
	// RingEscalations counts expanding-ring rounds beyond the first.
	RingEscalations int
	// OverhearReplies counts walk lookups answered by promiscuous
	// overhearers (Section 7.2).
	OverhearReplies int
	// LookupRetries counts timed-out lookup attempts retried with a fresh
	// quorum draw.
	LookupRetries int
	// Readvertises counts owner refreshes issued by the periodic
	// re-advertise ticker.
	Readvertises int
	// DeadOriginOps counts operations rejected because their origin was
	// down when they were issued.
	DeadOriginOps int
	// Resizes counts runtime quorum-size changes applied via Resize (the
	// adaptation controller's output).
	Resizes int
	// ReadvertiseRetunes counts runtime re-advertise-period changes
	// applied by the adaptation controller.
	ReadvertiseRetunes int
}

// Add sums o into c, counter by counter: how runs merge over seeds. A counter
// added to Counters is added here (the merge test fails on one left out).
func (c *Counters) Add(o Counters) {
	c.Salvations += o.Salvations
	c.WalkDrops += o.WalkDrops
	c.WalkExpirations += o.WalkExpirations
	c.ReplyDrops += o.ReplyDrops
	c.LocalRepairs += o.LocalRepairs
	c.FullRouteRepairs += o.FullRouteRepairs
	c.PathReductions += o.PathReductions
	c.Adaptations += o.Adaptations
	c.CacheHits += o.CacheHits
	c.OwnerHits += o.OwnerHits
	c.AdvertiseTimeouts += o.AdvertiseTimeouts
	c.RingEscalations += o.RingEscalations
	c.OverhearReplies += o.OverhearReplies
	c.LookupRetries += o.LookupRetries
	c.Readvertises += o.Readvertises
	c.DeadOriginOps += o.DeadOriginOps
	c.Resizes += o.Resizes
	c.ReadvertiseRetunes += o.ReadvertiseRetunes
}

// System runs a probabilistic biquorum system over a network. Construct one
// per simulation run with New.
type System struct {
	net     *netstack.Network
	routing aodv.Router
	members *membership.Service
	cfg     Config
	engine  *sim.Engine

	// prefetcher is routing's bulk route-warmup hook, when it has one (AODV,
	// and the oracle router with its route cache enabled); nil otherwise.
	// Quorum fan-outs call it with the member set they are about to contact
	// so all missing routes build in one pass.
	prefetcher aodv.RoutePrefetcher

	stores []*Store

	// An operation is pending exactly while it is in lookups or ads; every
	// message of an operation, retries and expanding-ring rounds included,
	// carries its one id.
	opSeq   uint32
	lookups map[opID]*pendingLookup
	ads     map[opID]*pendingAdvertise

	// owned records the latest value each origin has advertised per key,
	// feeding the periodic re-advertise refresh.
	owned map[ownedKey]string

	// floods holds each operation's flood rounds in launch order: one for
	// FLOODING, one per ring for EXPANDING-RING, one per attempt for a
	// retried flood lookup.
	floods map[opID][]floodRound

	// grace[graceHead:] holds the settled operations whose flood rounds are
	// still kept, oldest first (see releaseOpState). Only the head is an
	// engine event; graceFn is expireOpState bound once.
	grace     []graceEntry
	graceHead int
	graceFn   func()

	// stamp is the n-sized scratch set behind mark (id is a member iff
	// stamp[id] == stampGen); poolFree recycles the walks' salvation
	// candidate pools, walkFree and replyFree the hop messages themselves.
	// Together they keep a walk or reply hop free of allocations.
	stamp     []uint32
	stampGen  uint32
	poolFree  [][]int
	walkFree  []*walkMsg
	replyFree []*replyHop

	// served counts lookup answers produced per node (owner and bystander
	// alike) — the server-side load behind the load figure's skew metric.
	served []int64

	// readvTicker drives periodic re-advertising; held so the adaptation
	// controller can retune or disable the period at runtime.
	readvTicker *sim.Ticker

	// issuedAds and issuedLookups count live-origin operations issued
	// (including periodic re-advertises and collect lookups): the demand
	// meter behind the controller's observed rate ratio τ̂.
	issuedAds, issuedLookups int64

	counters Counters
}

// ownedKey identifies one origin's advertised key in the refresh registry.
type ownedKey struct {
	origin int
	key    string
}

type pendingLookup struct {
	id          opID
	key         string
	done        func(LookupResult)
	timer       *sim.Timer
	issued      float64
	intersected bool
	// collect mode (LookupCollect): gather every reply in a window
	// instead of finishing on the first one.
	collect     bool
	collected   []string
	collectDone func(CollectResult)
	// retry state: remaining fresh-quorum re-draws after a timeout, and
	// how many attempts have run (drives the exponential backoff).
	retriesLeft int
	attempt     int
}

type pendingAdvertise struct {
	id      opID
	res     AdvertiseResult
	done    func(AdvertiseResult)
	pending int // outstanding member contacts (Random) or 1 while walk alive
	issued  float64
	// timer is the AdvertiseTimeoutSecs deadline that force-settles the
	// op if its quorum access never reaches a terminal event.
	timer *sim.Timer
	// storedAt tracks the distinct nodes this operation has written.
	storedAt map[int]bool
	// contacted lists the members a RANDOM advertise has sent to, the drawn
	// quorum first, so that an adaptation draws a node not among them.
	contacted []int
}

// New installs the quorum protocol on every node of net. routing is any
// aodv.Router (AODV or the zero-overhead Oracle baseline) and may be nil
// only when neither strategy needs it (pure walk/flood mixes); members may
// be nil only when no Random/RandomOpt strategy is used.
func New(net *netstack.Network, routing aodv.Router, members *membership.Service, cfg Config) *System {
	if cfg.AdvertiseStrategy == ExpandingRing {
		panic("quorum: EXPANDING-RING is a lookup strategy only")
	}
	applyDefaults(&cfg, net.N())
	s := &System{
		net:     net,
		routing: routing,
		members: members,
		cfg:     cfg,
		engine:  net.Engine(),
		stores:  make([]*Store, net.N()),
		lookups: make(map[opID]*pendingLookup),
		ads:     make(map[opID]*pendingAdvertise),
		owned:   make(map[ownedKey]string),
		floods:  make(map[opID][]floodRound),
		stamp:   make([]uint32, net.N()),
		served:  make([]int64, net.N()),
	}
	s.prefetcher, _ = routing.(aodv.RoutePrefetcher)
	s.graceFn = s.expireOpState
	needsMembers := cfg.AdvertiseStrategy.DrawsFromView() || cfg.LookupStrategy.DrawsFromView()
	if (needsMembers || cfg.ReplyLocalRepair) && routing == nil {
		panic("quorum: configuration requires routing but none was provided")
	}
	if needsMembers && members == nil {
		panic("quorum: configuration requires a membership service but none was provided")
	}
	for id := 0; id < net.N(); id++ {
		s.stores[id] = NewStore()
		net.Node(id).Register(netstack.ProtoQuorum, &nodeDispatch{s: s})
	}
	if cfg.AdvertiseStrategy == RandomOpt || cfg.LookupStrategy == RandomOpt {
		for id := 0; id < net.N(); id++ {
			id := id
			routing.AddTransitTap(id, func(at *netstack.Node, inner *netstack.Packet) bool {
				return s.transitTap(at, inner)
			})
		}
	}
	if cfg.Overhearing {
		for id := 0; id < net.N(); id++ {
			net.Node(id).AddOverhearTap(s.overhearTap)
		}
	}
	if cfg.ReadvertiseSecs > 0 {
		s.readvTicker = sim.NewTicker(net.Engine(), cfg.ReadvertiseSecs, cfg.ReadvertiseSecs, s.readvertiseAll)
	}
	return s
}

func applyDefaults(cfg *Config, n int) {
	if cfg.LookupTimeout == 0 {
		cfg.LookupTimeout = 30
	}
	if cfg.AdvertiseTimeoutSecs == 0 {
		cfg.AdvertiseTimeoutSecs = 60
	}
	if cfg.RandomOptTargets == 0 {
		cfg.RandomOptTargets = lnCeil(n)
	}
	if cfg.AdvertiseSize == 0 {
		cfg.AdvertiseSize = AdvertiseSizeDefault(n)
	}
	if cfg.LookupSize == 0 {
		cfg.LookupSize = LookupSizeFor(n, 0.9)
	}
	if cfg.AdvertiseTTL == 0 {
		cfg.AdvertiseTTL = 3
	}
	if cfg.LookupTTL == 0 {
		cfg.LookupTTL = 3
	}
	if cfg.LookupRetries > 0 && cfg.RetryBackoffSecs == 0 {
		cfg.RetryBackoffSecs = 1
	}
}

// Config returns the defaults-filled configuration in use.
func (s *System) Config() Config { return s.cfg }

// ViewDraw returns the largest quorum c draws from a membership view: |Qa|
// when the advertise strategy draws from it (RANDOM and RANDOM-OPT advertise
// through the same draw), |Qℓ| when the lookup is RANDOM (RANDOM-OPT lookups
// draw their ~ln n targets), 0 when neither does.
func (c Config) ViewDraw() int {
	k := 0
	if c.AdvertiseStrategy.DrawsFromView() {
		k = c.AdvertiseSize
	}
	if c.LookupStrategy == Random {
		k = max(k, c.LookupSize)
	}
	return k
}

// SetLookupSize adjusts |Qℓ| at runtime — the paper's dynamic adaptation of
// the lookup quorum to an estimated network size n(t) (Section 6.1).
func (s *System) SetLookupSize(k int) {
	if k < 1 {
		k = 1
	}
	s.cfg.LookupSize = k
	s.growView()
}

// Resize adjusts both quorum sizes at runtime (sizes below 1 are clamped).
// In-flight operations are unaffected — each dispatch reads the sizes at
// draw time, so a lookup that times out after a resize retries with the new
// |Qℓ| (see TestRetryUsesResizedQuorum). Re-advertises likewise pick up the
// new |Qa| on their next refresh, which is how an adaptive system restores
// the Corollary 5.3 product after n drifts. A size that draws from the
// membership view and outgrows it grows the view at once (growView).
func (s *System) Resize(advertiseSize, lookupSize int) {
	if advertiseSize < 1 {
		advertiseSize = 1
	}
	if lookupSize < 1 {
		lookupSize = 1
	}
	s.cfg.AdvertiseSize = advertiseSize
	s.cfg.LookupSize = lookupSize
	s.counters.Resizes++
	s.growView()
}

// growView grows the membership view to the largest size drawn from it, so
// a resize is never cut to the view stack.Build sized for the initial
// quorums. Shrinking leaves the view alone.
func (s *System) growView() {
	if k := s.cfg.ViewDraw(); k > 0 {
		s.members.GrowView(k)
	}
}

// SetReadvertiseSecs retunes the periodic re-advertise interval at runtime:
// positive values change the period (starting a ticker if none was
// running — its pending tick keeps its deadline, so retuning never resets
// the refresh phase), non-positive values stop re-advertising.
func (s *System) SetReadvertiseSecs(secs float64) {
	if secs <= 0 {
		if s.readvTicker != nil {
			s.readvTicker.Stop()
			s.readvTicker = nil
		}
		s.cfg.ReadvertiseSecs = 0
		return
	}
	s.cfg.ReadvertiseSecs = secs
	if s.readvTicker != nil {
		s.readvTicker.SetInterval(secs)
		return
	}
	s.readvTicker = sim.NewTicker(s.engine, secs, secs, s.readvertiseAll)
}

// IssuedOps returns how many live-origin advertise and lookup operations
// have been issued so far (periodic re-advertises included): the demand
// counters whose deltas give the controller its observed τ̂.
func (s *System) IssuedOps() (ads, lookups int64) {
	return s.issuedAds, s.issuedLookups
}

// observeMembers piggybacks a quorum draw into the membership service's
// continuous size estimator (a no-op unless estimation is enabled).
func (s *System) observeMembers(origin int, members []int) {
	if s.members != nil {
		s.members.Observe(origin, members)
	}
}

// Store returns node id's local location store.
func (s *System) Store(id int) *Store { return s.stores[id] }

// Counters returns protocol diagnostics accumulated so far.
func (s *System) Counters() Counters { return s.counters }

// recordServe tallies one lookup answer produced at node id: the
// owner/bystander split feeds the OwnerHits/CacheHits counters, and the
// per-node count feeds the load-skew metric.
func (s *System) recordServe(id int, key string) {
	if !s.stores[id].Owner(key) {
		s.counters.CacheHits++
	} else {
		s.counters.OwnerHits++
	}
	s.served[id]++
}

// ServedCounts returns per-node lookup-answer counts (indexed by node id):
// the server-side load distribution whose max/mean skew the load figure
// reports, GeoQuorum's load-balance motivation measured directly.
func (s *System) ServedCounts() []int64 { return s.served }

// PendingOps reports how many lookup and advertise operations are still
// registered in the pending maps. After a run has fully drained (every
// issued op's timeout horizon has passed) both must be zero; a nonzero
// count is a leaked op-termination path — under open-loop load, unbounded
// memory. The check package asserts this in Suite.Final.
func (s *System) PendingOps() (lookups, ads int) {
	return len(s.lookups), len(s.ads)
}

// LookupHorizon is the longest a lookup can stay unresolved: one timeout,
// plus a doubling backoff and another timeout per retry. Runners drain past
// it; LeakedOps counts what is still pending beyond it.
func (c Config) LookupHorizon() float64 {
	horizon := c.LookupTimeout
	backoff := c.RetryBackoffSecs
	for r := 0; r < c.LookupRetries; r++ {
		horizon += backoff + c.LookupTimeout
		backoff *= 2
	}
	return horizon
}

// LeakedOps counts pending ops past the horizon at which their termination
// path must have settled them: the full retry/backoff ladder plus one
// timeout for lookups, AdvertiseTimeoutSecs for advertises. Unlike
// PendingOps it is meaningful at any instant — a pending entry inside its
// horizon is an op in flight (periodic re-advertising keeps some in flight
// forever), one beyond it is a leaked termination path, and under
// open-loop load, unbounded memory. The check package asserts zero in
// Suite.Final.
func (s *System) LeakedOps() (lookups, ads int) {
	now := s.engine.Now()
	horizon := s.cfg.LookupHorizon()
	for _, lk := range s.lookups {
		if now > lk.issued+horizon {
			lookups++
		}
	}
	for _, ad := range s.ads {
		if now > ad.issued+s.cfg.AdvertiseTimeoutSecs {
			ads++
		}
	}
	return lookups, ads
}

// nodeDispatch adapts netstack handler dispatch to the System.
type nodeDispatch struct{ s *System }

// HandlePacket implements netstack.Handler.
func (d *nodeDispatch) HandlePacket(n *netstack.Node, pkt *netstack.Packet, from int) {
	switch m := pkt.Payload.(type) {
	case *walkMsg:
		d.s.handleWalk(n, m)
	case *directMsg:
		d.s.handleDirect(n, m)
	case *replyMsg:
		d.s.handleReply(n, m)
	case *floodMsg:
		d.s.handleFlood(n, pkt, m, from)
	}
}

func (s *System) nextOp(origin int) opID {
	s.opSeq++
	return opID{Origin: origin, Seq: s.opSeq}
}

// payloadBytes sizes every quorum message (paper: 512).
const payloadBytes = 512

// packet fills in a quorum packet. A one-hop send takes it from the sender's
// stack; a routed message's inner packet outlives the call and is part of the
// message (directMsg, replyMsg), and a jittered broadcast's lives on the heap
// (newPacket).
func (s *System) packet(src, dst int, payload any) netstack.Packet {
	return netstack.Packet{
		Proto: netstack.ProtoQuorum, Src: src, Dst: dst,
		Bytes: payloadBytes, Payload: payload,
	}
}

func (s *System) newPacket(src, dst int, payload any) *netstack.Packet {
	pkt := s.packet(src, dst, payload)
	return &pkt
}
