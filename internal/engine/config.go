// Package engine implements the paper's two protocol engines on top of
// the discrete-event kernel: the baseline server-based strict two-phase
// locking protocol (s-2PL, paper §3.1) and the group two-phase locking
// protocol (g-2PL, paper §3.2-3.4) with its lock grouping, deadlock
// avoidance and MR1W optimizations.
//
// Every engine runs under one client harness (harness.go) and shares the
// workload, network and measurement machinery, so that a comparison under
// a common seed differs only in the protocol.
package engine

import (
	"fmt"

	"repro/internal/history"
	"repro/internal/ids"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Protocol selects which engine runs.
type Protocol int

const (
	// S2PL is the baseline server-based strict 2PL protocol.
	S2PL Protocol = iota
	// G2PL is the group 2PL protocol with all paper optimizations
	// subject to the Config toggles.
	G2PL
)

// String returns the paper's protocol name.
func (p Protocol) String() string {
	switch p {
	case S2PL:
		return "s-2PL"
	case G2PL:
		return "g-2PL"
	case C2PL:
		return "c-2PL"
	}
	return fmt.Sprintf("Protocol(%d)", int(p))
}

// Config describes one simulation run.
type Config struct {
	Protocol Protocol
	Clients  int
	Workload workload.Config
	Latency  sim.Time // one-way network latency in ticks (Table 2)
	Seed     uint64   // replication seed; same seed => same workload

	// Measurement protocol (paper §5): run WarmupCommits commits to pass
	// the transient, then measure until TargetCommits more commits.
	TargetCommits int
	WarmupCommits int

	// g-2PL options. Defaults (false/0) mean: deadlock avoidance ON is
	// expressed as !NoAvoidance, MR1W ON as !NoMR1W, so the zero value of
	// Config runs the full protocol of the paper's evaluation.
	NoAvoidance    bool // disable consistent forward-list ordering
	NoMR1W         bool // disable multiple-readers/single-writer overlap
	MaxForwardList int  // cap entries dispatched per window; 0 = unlimited
	ReadExpand     bool // extension: late readers join a dispatched read group

	// NoCache is the c-2PL cache ablation: the client evicts its entire
	// lock/data cache when a transaction ends instead of retaining entries
	// across transaction boundaries, degenerating c-2PL toward s-2PL with
	// data shipping. Ignored by the other protocols.
	NoCache bool

	// FIFOWindows disables the reader-grouping ordering rule: forward
	// lists keep pure arrival order (an ablation; the reproduction
	// default groups a window's readers into maximal parallel segments,
	// paper §3.2's ordering rules).
	FIFOWindows bool

	// WindowDelay holds a returning (or freshly requested) item at the
	// server for this long before dispatching its forward list, letting
	// the collection window gather more requests (the tunable window of
	// the paper's footnote 1). 0 dispatches immediately.
	WindowDelay sim.Time

	// Victim selects the deadlock victim policy, applied identically to
	// both protocols.
	Victim protocol.VictimPolicy

	// Deadlock selects the deadlock policy (detect, nowait, waitdie,
	// woundwait), applied to every protocol. The zero value is the paper's
	// detect-and-abort, pinned by the golden trajectories.
	Deadlock protocol.DeadlockPolicy

	// Shards, when > 1, splits the item space across K lock-server shards
	// coordinated by a 2PC commit coordinator (extension, DESIGN.md §13).
	// s-2PL only. 0 or 1 runs the single-server topology unchanged — the
	// golden trajectories pin that equivalence.
	Shards int

	// CrossRatio is the probability a sharded transaction draws its items
	// from the whole pool instead of being confined to one shard's range;
	// it steers the cross-shard (2PC) fraction of the workload. Requires
	// range sharding, whose ranges the workload confinement mirrors.
	CrossRatio float64

	// Bank turns the sharded run into fixed-total bank transfers: every
	// transaction reads two account balances under write locks and moves a
	// deterministic amount from the first to the second, so the global
	// balance sum is invariant under any serializable execution — the 2PC
	// atomicity oracle. Requires Shards >= 2 and a 2-item all-write
	// workload.
	Bank bool

	// InitialBalance seeds every item's value before a Bank run.
	InitialBalance int64

	// PartitionAt/PartitionFor schedule one network outage window: every
	// message sent in [PartitionAt, PartitionAt+PartitionFor) is held and
	// delivered one latency after the heal point, in send order — the DES
	// abstraction of a reliable transport retransmitting across a
	// partition (DESIGN.md §15). PartitionFor 0 (the zero value) disables
	// the window; the golden trajectories pin that equivalence.
	PartitionAt  sim.Time
	PartitionFor sim.Time

	// RecordHistory captures every committed transaction's reads/writes
	// for the serializability oracle. Costs memory; off in sweeps.
	RecordHistory bool

	// MaxTime aborts the run if the clock passes this value with the
	// commit target unmet (a livelock guard for tests). 0 = no limit.
	MaxTime sim.Time

	// TraceHash enables the kernel trajectory hasher: the run's Result
	// carries an FNV-1a digest of every scheduled/fired/cancelled event.
	// Two runs with equal configs must produce equal hashes; a refactor
	// that changes the hash changed the message schedule.
	TraceHash bool

	// Tracer, when non-nil, additionally observes the kernel's event
	// stream (e.g. a sim.RingTrace for dump-on-failure diagnostics). It
	// composes with TraceHash.
	Tracer sim.Tracer
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	switch {
	case c.Clients <= 0:
		return fmt.Errorf("engine: Clients must be positive, got %d", c.Clients)
	case c.Latency <= 0:
		return fmt.Errorf("engine: Latency must be positive, got %d", c.Latency)
	case c.TargetCommits <= 0:
		return fmt.Errorf("engine: TargetCommits must be positive, got %d", c.TargetCommits)
	case c.WarmupCommits < 0:
		return fmt.Errorf("engine: WarmupCommits must be >= 0, got %d", c.WarmupCommits)
	case c.MaxForwardList < 0:
		return fmt.Errorf("engine: MaxForwardList must be >= 0, got %d", c.MaxForwardList)
	case c.WindowDelay < 0:
		return fmt.Errorf("engine: WindowDelay must be >= 0, got %d", c.WindowDelay)
	case c.Protocol != S2PL && c.Protocol != G2PL && c.Protocol != C2PL:
		return fmt.Errorf("engine: unknown protocol %d", int(c.Protocol))
	case c.Deadlock < protocol.PolicyDetect || c.Deadlock > protocol.PolicyWoundWait:
		return fmt.Errorf("engine: unknown deadlock policy %d", int(c.Deadlock))
	case c.Shards < 0:
		return fmt.Errorf("engine: Shards must be >= 0, got %d", c.Shards)
	case c.Shards > 1 && c.Protocol != S2PL:
		return fmt.Errorf("engine: sharding is implemented for s-2PL only, got %v", c.Protocol)
	case c.CrossRatio < 0 || c.CrossRatio > 1:
		return fmt.Errorf("engine: CrossRatio %v outside [0,1]", c.CrossRatio)
	case c.Bank && c.Shards < 2:
		return fmt.Errorf("engine: Bank requires Shards >= 2, got %d", c.Shards)
	case c.Bank && (c.Workload.MinTxnItems != 2 || c.Workload.MaxTxnItems != 2 || c.Workload.ReadProb != 0):
		return fmt.Errorf("engine: Bank requires a 2-item all-write workload")
	case c.PartitionAt < 0:
		return fmt.Errorf("engine: PartitionAt must be >= 0, got %d", c.PartitionAt)
	case c.PartitionFor < 0:
		return fmt.Errorf("engine: PartitionFor must be >= 0, got %d", c.PartitionFor)
	}
	return c.workload().Validate()
}

// workload is the workload configuration the run's generators draw from:
// under range sharding the confinement knobs mirror the shard ranges.
func (c Config) workload() workload.Config {
	wl := c.Workload
	if c.Shards > 1 {
		wl.Shards = c.Shards
		wl.CrossProb = c.CrossRatio
	}
	return wl
}

// Result summarizes one run.
type Result struct {
	Protocol Protocol
	Commits  int64 // measured commits
	Aborts   int64 // measured aborts (all deadlock-induced, paper §5)

	Response stats.Accumulator // response times of measured commits, ticks

	Messages int64 // network messages over the whole run
	Bytes    int64 // abstract payload units over the whole run
	Held     int64 // messages the partition window held to its heal point

	// OpWait is the time from sending a data request to receiving the
	// item, per operation, over the whole run — the queueing-delay lens
	// on the same executions.
	OpWait stats.Accumulator

	// WindowLen is the forward-list length per dispatch (g-2PL only):
	// the paper's grouping effect is visible here.
	WindowLen stats.Accumulator

	// Abort counts by detection site (g-2PL; s-2PL uses only Enqueue).
	AbortsAtEnqueue  int64 // cycle found when a request blocked
	AbortsAtDispatch int64 // consistent ordering impossible at dispatch

	Duration sim.Time // simulated time consumed by the whole run

	// Events is the number of kernel events fired over the whole run —
	// the denominator of the DES events/sec benchmark metric.
	Events uint64

	// History is non-nil when Config.RecordHistory was set; it includes
	// warmup commits so version chains are complete.
	History *history.Log

	// TrajectoryHash is the kernel event-stream digest when
	// Config.TraceHash was set, zero otherwise.
	TrajectoryHash uint64

	// TwoPC carries the sharded run's per-phase commit counters; zero for
	// single-server runs.
	TwoPC stats.TwoPC

	// Causes splits the aborts by why the deadlock policy killed them
	// (cycle victim, wound, die, no-wait conflict, coordinator timeout).
	Causes stats.AbortCauses

	// RespSample holds measured commit response times for percentile
	// reporting (p50/p95/p99); the mean lives in Response.
	RespSample stats.Sample

	// BlockedSample holds the per-operation time-blocked estimate: the
	// request-to-grant wait minus the two uncontended network legs,
	// clamped at zero. Tail percentiles here are where deadlock policies
	// separate when means barely move.
	BlockedSample stats.Sample

	// Values is the final data-item store of a sharded run, which drains
	// to quiescence after the commit target instead of stopping mid-flight
	// — what the bank-transfer invariant asserts over. Nil for
	// single-server runs.
	Values map[ids.Item]int64
}

// AbortPct returns the paper's "percentage of transactions aborted":
// aborts over finished transaction instances, in percent.
func (r Result) AbortPct() float64 {
	total := r.Commits + r.Aborts
	if total == 0 {
		return 0
	}
	return 100 * float64(r.Aborts) / float64(total)
}

// MeanResponse returns the mean transaction response time in ticks.
func (r Result) MeanResponse() float64 { return r.Response.Mean() }

// Throughput returns measured commits per 1000 simulated ticks.
func (r Result) Throughput() float64 {
	if r.Duration == 0 {
		return 0
	}
	return 1000 * float64(r.Commits) / float64(r.Duration)
}

// Run executes one simulation run and returns its result. It returns an
// error for invalid configurations or if MaxTime elapses before the
// commit target is met.
func Run(cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	switch cfg.Protocol {
	case S2PL:
		if cfg.Shards > 1 {
			return runS2PLSharded(cfg)
		}
		return runS2PL(cfg)
	case C2PL:
		return runC2PL(cfg)
	case G2PL:
		return runG2PL(cfg)
	default:
		// Unreachable past Validate; loud beats silently running g-2PL.
		return Result{}, fmt.Errorf("engine: unknown protocol %v", cfg.Protocol)
	}
}

// installTracer wires the configured tracing into the kernel and returns
// the hasher whose digest becomes Result.TrajectoryHash (nil when hashing
// is off). Only live tracers are composed: a nil Config.Tracer never
// reaches the kernel.
func installTracer(k *sim.Kernel, cfg Config) *sim.TrajectoryHasher {
	var hasher *sim.TrajectoryHasher
	var tracers []sim.Tracer
	if cfg.TraceHash {
		hasher = sim.NewTrajectoryHasher()
		tracers = append(tracers, hasher)
	}
	if cfg.Tracer != nil {
		tracers = append(tracers, cfg.Tracer)
	}
	if tr := sim.MultiTracer(tracers...); tr != nil {
		k.SetTracer(tr)
	}
	return hasher
}

// collector implements the shared measurement protocol.
type collector struct {
	kernel  *sim.Kernel
	warmup  int
	target  int
	latency sim.Time

	totalCommits int64
	commits      int64
	aborts       int64
	resp         stats.Accumulator
	respSample   stats.Sample
	blockedSamp  stats.Sample
	opWait       stats.Accumulator
	windowLen    stats.Accumulator
	abortEnq     int64
	abortDisp    int64
	log          *history.Log
	done         bool

	// drain, when set, replaces the kernel stop at target: the sharded
	// driver drains in-flight transactions to quiescence instead, so no
	// commit can be caught half-installed. The livelock guard is cancelled
	// so the kernel can stop on an empty queue. Post-target commits still
	// reach the history log (the oracle wants the complete run); the
	// measured counters stay frozen.
	drain bool
	guard *sim.Event // the MaxTime event, nil without a limit
}

func newCollector(k *sim.Kernel, cfg Config) *collector {
	c := &collector{kernel: k, warmup: cfg.WarmupCommits, target: cfg.TargetCommits, latency: cfg.Latency}
	if cfg.RecordHistory {
		c.log = &history.Log{}
	}
	return c
}

func (c *collector) measuring() bool { return c.totalCommits >= int64(c.warmup) }

func (c *collector) commit(rt sim.Time, rec history.Committed) {
	if c.done {
		if c.drain && c.log != nil {
			c.log.Commit(rec)
		}
		return
	}
	if c.measuring() {
		c.commits++
		c.resp.Add(float64(rt))
		c.respSample.Add(float64(rt))
	}
	c.totalCommits++
	if c.log != nil {
		c.log.Commit(rec)
	}
	if c.commits >= int64(c.target) {
		c.done = true
		if !c.drain {
			c.kernel.Stop()
		} else if c.guard != nil {
			c.kernel.Cancel(c.guard)
		}
	}
}

// opWaited folds one operation's request-to-grant wait into the queueing
// accumulators, deriving the time-blocked estimate: the wait minus the
// two network legs every request pays even uncontended, clamped at zero.
func (c *collector) opWaited(w sim.Time) {
	c.opWait.Add(float64(w))
	b := w - 2*c.latency
	if b < 0 {
		b = 0
	}
	c.blockedSamp.Add(float64(b))
}

func (c *collector) abort() {
	if c.done {
		if c.drain && c.log != nil {
			c.log.Abort()
		}
		return
	}
	if c.measuring() {
		c.aborts++
	}
	if c.log != nil {
		c.log.Abort()
	}
}

func (c *collector) result(p Protocol, msgs, bytes int64, dur sim.Time) Result {
	return Result{
		Protocol:         p,
		Commits:          c.commits,
		Aborts:           c.aborts,
		Response:         c.resp,
		Messages:         msgs,
		Bytes:            bytes,
		OpWait:           c.opWait,
		WindowLen:        c.windowLen,
		AbortsAtEnqueue:  c.abortEnq,
		AbortsAtDispatch: c.abortDisp,
		Duration:         dur,
		History:          c.log,
		RespSample:       c.respSample,
		BlockedSample:    c.blockedSamp,
	}
}
