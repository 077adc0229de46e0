// Package live is a real concurrent implementation of the paper's
// data-shipping client-server system: one server goroutine and one
// goroutine per client site, exchanging messages over latency-injecting
// in-process links. It implements all three protocols — server-based
// strict 2PL, group 2PL with lock grouping, reader batching and MR1W,
// and caching 2PL with lock retention and callbacks — over an in-memory
// versioned store, and records a history for the serializability oracle.
//
// Where the discrete-event engines (package engine) measure the paper's
// curves deterministically, this package demonstrates the protocols under
// genuine concurrency and gives downstream users an adoptable library
// shape: Run drives a workload; Cluster/Client expose the moving parts.
// The protocol decision logic itself lives in package protocol — the
// same state machines the engines execute — so this package only adapts
// events to messages, goroutines and wall-clock timers.
//
// One deliberate protocol addition: in g-2PL the data items migrate
// client-to-client, so the server cannot see releases that travel between
// clients. Each client therefore cc's the server with a small "done"
// notification when it finishes an item, keeping the server's wait-for
// graph (deadlock detection) current. The extra message is off the
// critical path.
package live

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/history"
	"repro/internal/ids"
	"repro/internal/lock"
	"repro/internal/protocol"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/workload"
)

// Protocol selects the live protocol implementation.
type Protocol int

const (
	// S2PL runs server-based strict two-phase locking.
	S2PL Protocol = iota
	// G2PL runs group two-phase locking with forward lists and MR1W.
	G2PL
	// C2PL runs caching two-phase locking: locks and data copies belong
	// to client sites and survive transaction boundaries; conflicting
	// requests trigger server callbacks (recalls).
	C2PL
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

// Config describes a live cluster run.
type Config struct {
	Protocol      Protocol
	Clients       int
	Latency       time.Duration // one-way link latency
	Workload      workload.Config
	TxnsPerClient int // committed transactions each client must finish
	Seed          uint64
	NoMR1W        bool
	// StallTimeout bounds the whole run: if the clients have not all
	// reached their commit target within it, Run fails with a stall
	// error. Zero means the two-minute default.
	StallTimeout time.Duration
	// Chaos injects link faults (reorder, duplicate, jitter, drop,
	// partition windows); the zero value leaves the network well-behaved.
	Chaos ChaosConfig
	// ARQ tunes the retransmission layer that masks Chaos.Drop and heals
	// Chaos.Partition windows; it is engaged only when Drop > 0 or
	// Partition is configured, and not Disabled. See ARQConfig.
	ARQ ARQConfig
	// WAL turns on the shard sites' write-ahead log: prepare records are
	// appended (and synced through the fsync seam) before a yes vote
	// leaves the site, decision records before a commit installs, so a
	// crashed site can redo committed writes and re-derive its 2PC
	// participant state. Required by Crash; usable alone to measure the
	// logging cost. Sharded clusters only.
	WAL bool
	// WALCheckpointEvery rolls a checkpoint into each WAL (shard and
	// coordinator) after that many appends, truncating the log prefix the
	// snapshot supersedes; zero never checkpoints, so logs grow without
	// bound. Requires WAL.
	WALCheckpointEvery int
	// Crash injects site crash-restart faults: between two protocol
	// messages a shard site (Prob) or the coordinator (CoordProb) may
	// lose all volatile state and rejoin by replaying its WAL. Requires
	// WAL and a sharded cluster. See CrashConfig.
	Crash CrashConfig
	// Shards > 1 splits the lock space across that many range-partitioned
	// lock-server shard sites with a 2PC commit coordinator (s-2PL only);
	// Shards <= 1 keeps the classic single server.
	Shards int
	// CrossRatio is the probability a transaction may cross shard
	// boundaries (workload.CrossProb); the rest stay shard-confined.
	CrossRatio float64
	// Bank turns each transaction's writes into a balance transfer
	// between its two items, preserving the global balance sum — the
	// cross-shard atomicity invariant. Requires a sharded cluster and a
	// 2-item all-write workload.
	Bank bool
	// InitialBalance seeds every item's value for Bank runs.
	InitialBalance int64
	// Victim selects the deadlock victim policy used when detection finds
	// a cycle (s-2PL and the sharded coordinator; zero value: requester).
	Victim protocol.VictimPolicy
	// Deadlock selects the conflict-resolution strategy: detect-and-abort
	// (zero value), No-Wait, Wait-Die or Wound-Wait.
	Deadlock protocol.DeadlockPolicy
}

// effectiveWorkload is the workload configuration the generators actually
// run: cluster sharding maps onto the workload's shard-confinement knobs.
func (c Config) effectiveWorkload() workload.Config {
	wl := c.Workload
	if c.Shards > 1 {
		wl.Shards = c.Shards
		wl.CrossProb = c.CrossRatio
	}
	return wl
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	switch {
	case c.Clients <= 0:
		return fmt.Errorf("live: Clients must be positive, got %d", c.Clients)
	case c.Latency < 0:
		return fmt.Errorf("live: Latency must be >= 0, got %v", c.Latency)
	case c.TxnsPerClient <= 0:
		return fmt.Errorf("live: TxnsPerClient must be positive, got %d", c.TxnsPerClient)
	case c.StallTimeout < 0:
		return fmt.Errorf("live: StallTimeout must be >= 0, got %v", c.StallTimeout)
	case c.Protocol != S2PL && c.Protocol != G2PL && c.Protocol != C2PL:
		return fmt.Errorf("live: unknown protocol %d", int(c.Protocol))
	case c.Shards < 0:
		return fmt.Errorf("live: Shards must be >= 0, got %d", c.Shards)
	case c.Shards > 1 && c.Protocol != S2PL:
		return fmt.Errorf("live: sharding requires s-2PL, got %v", c.Protocol)
	case c.CrossRatio < 0 || c.CrossRatio > 1:
		return fmt.Errorf("live: CrossRatio must be in [0,1], got %v", c.CrossRatio)
	case c.CrossRatio > 0 && c.Shards <= 1:
		return fmt.Errorf("live: CrossRatio needs Shards > 1")
	case c.Bank && c.Shards <= 1:
		return fmt.Errorf("live: Bank requires a sharded cluster")
	case c.InitialBalance != 0 && !c.Bank:
		return fmt.Errorf("live: InitialBalance requires Bank")
	case c.Bank && (c.Workload.MinTxnItems != 2 || c.Workload.MaxTxnItems != 2 || c.Workload.ReadProb != 0):
		return fmt.Errorf("live: Bank requires a 2-item all-write workload")
	case c.Victim < protocol.VictimRequester || c.Victim > protocol.VictimLeastHeld:
		return fmt.Errorf("live: unknown victim policy %d", int(c.Victim))
	case c.Deadlock < protocol.PolicyDetect || c.Deadlock > protocol.PolicyWoundWait:
		return fmt.Errorf("live: unknown deadlock policy %d", int(c.Deadlock))
	case c.WAL && c.Shards <= 1:
		return fmt.Errorf("live: WAL requires a sharded cluster")
	case c.Crash.enabled() && c.Shards <= 1:
		return fmt.Errorf("live: Crash requires a sharded cluster")
	case c.Crash.enabled() && !c.WAL:
		return fmt.Errorf("live: Crash requires WAL — without redo, committed writes die with the site")
	case c.WALCheckpointEvery < 0:
		return fmt.Errorf("live: WALCheckpointEvery must be >= 0, got %d", c.WALCheckpointEvery)
	case c.WALCheckpointEvery > 0 && !c.WAL:
		return fmt.Errorf("live: WALCheckpointEvery requires WAL")
	}
	if err := c.Chaos.validate(); err != nil {
		return err
	}
	if err := c.ARQ.validate(); err != nil {
		return err
	}
	if err := c.Crash.validate(); err != nil {
		return err
	}
	return c.effectiveWorkload().Validate()
}

// Stats summarizes a cluster run.
type Stats struct {
	Commits  int64
	Aborts   int64
	Messages int64
	Elapsed  time.Duration
	// MeanResponse is the mean commit latency over committed transactions.
	MeanResponse time.Duration
	// P50/P95/P99 are commit-latency percentiles over a deterministic
	// reservoir of committed transactions.
	P50, P95, P99 time.Duration
	// MeanBlocked estimates the mean lock-wait per server round trip: the
	// observed wait minus two link latencies, clamped at zero.
	MeanBlocked time.Duration
	// Causes breaks the aborts down by what killed them (deadlock cycle,
	// wound, die, no-wait).
	Causes stats.AbortCauses

	// Reliability counters: what chaos did to the wire and what the ARQ
	// layer did about it. All zero on a well-behaved network.
	Dropped         int64 // transmissions lost to Chaos.Drop
	PartitionDrops  int64 // transmissions killed inside partition windows
	Quarantined     int64 // retransmit fires deferred by link quarantine
	Retransmits     int64 // envelopes re-sent by the RTO timer
	AcksSent        int64 // standalone cumulative acks transmitted
	AcksCoalesced   int64 // ack-worthy arrivals absorbed by a pending ack
	AcksPiggybacked int64 // acks carried on reverse-direction envelopes
	// MaxRTO is the longest retransmission timeout any link actually
	// waited out; zero means no retransmission was ever needed.
	MaxRTO time.Duration

	// Failure-recovery counters: crash-restart faults and the WAL work
	// that survived them. All zero without Config.Crash / Config.WAL.
	Crashes     int64 // shard-site crash-restarts injected
	WALAppends  int64 // records appended (and synced) to all WALs
	WALReplayed int64 // records replayed by redo passes after crashes
	// Coordinator recovery and termination-protocol counters
	// (DESIGN.md §16); all zero without coordinator crashes.
	CoordRestarts         int64 // coordinator crash-restarts injected
	Inquiries             int64 // in-doubt inquiries the coordinator answered
	InDoubtResolvedCommit int64 // inquiries resolved commit (from the log)
	InDoubtResolvedAbort  int64 // inquiries resolved abort (presumed)
	// Checkpoint/truncation counters; zero unless WALCheckpointEvery > 0.
	WALCheckpoints int64 // checkpoint records rolled across all WALs
	WALTruncated   int64 // log records dropped by checkpoint truncation

	// TwoPC holds the coordinator's per-phase counters on a sharded run;
	// all zero on a single-server cluster.
	TwoPC stats.TwoPC
}

// message is anything deliverable to a mailbox.
type message any

// Protocol messages. Values carried by items are the installing
// transaction's id, so a read can be checked against its version.
type (
	// reqMsg asks the server for a data item.
	reqMsg struct {
		txn    ids.Txn
		client ids.Client
		item   ids.Item
		write  bool
		// epoch is the transaction's operation index — the block-episode
		// id the sharded coordinator orders block/clear reports by. The
		// single server ignores it.
		epoch int
		// ts is the transaction's priority timestamp (first incarnation's
		// id), used by the Wait-Die/Wound-Wait policies.
		ts ids.Txn
	}
	// dataMsg delivers a data item (copy or exclusive) to a client,
	// together with the forward-list routing plan (nil under s-2PL).
	dataMsg struct {
		txn     ids.Txn // recipient transaction
		item    ids.Item
		version ids.Txn
		value   int64
		plan    *protocol.FlightPlan
	}
	// abortMsg tells a client its transaction lost a deadlock.
	abortMsg struct {
		txn ids.Txn
	}
	// releaseMsg is s-2PL's combined commit/release, carrying updates; an
	// aborted victim sends it empty with aborted set.
	releaseMsg struct {
		txn     ids.Txn
		writes  []writeUpdate
		aborted bool
	}
	// fwdMsg is g-2PL's client-to-client (or client-to-server) hand-off
	// of an item, or a reader's release to the next writer. Releases to a
	// writer carry the data too (the paper's basic-mode delivery).
	fwdMsg struct {
		item    ids.Item
		from    ids.Txn
		to      ids.Txn // recipient transaction; ids.None for the server
		version ids.Txn
		value   int64
		release bool // reader release (no data ownership transfer)
		plan    *protocol.FlightPlan
	}
	// doneMsg cc's the server when a transaction finishes an item.
	doneMsg struct {
		txn  ids.Txn
		item ids.Item
	}
	// grantMsg is c-2PL's lock grant to a client cache; the data rides
	// along (redundantly, when the client already holds a copy).
	grantMsg struct {
		txn     ids.Txn
		item    ids.Item
		mode    lock.Mode
		version ids.Txn
		value   int64
	}
	// recallMsg is c-2PL's server callback asking a client to give a
	// cached item back.
	recallMsg struct {
		item ids.Item
	}
	// deferMsg is a client's answer to a recall: its running transaction
	// used the item, so the release waits for that transaction's end.
	deferMsg struct {
		txn    ids.Txn
		client ids.Client
		item   ids.Item
		ts     ids.Txn // priority timestamp, as in reqMsg
	}
	// crelMsg is a client's immediate cache release of a recalled item.
	crelMsg struct {
		client ids.Client
		item   ids.Item
	}
	// finishMsg is c-2PL's combined end-of-transaction message: committed
	// updates plus the cache releases that ride on it (deferred recalls).
	finishMsg struct {
		txn      ids.Txn
		client   ids.Client
		writes   []writeUpdate
		released []ids.Item
	}
)

// writeUpdate carries one installed value in a commit release.
type writeUpdate struct {
	item  ids.Item
	value int64
}

// delivery is one in-flight packet on a link, due at a transport time.
type delivery struct {
	at  transport.Time
	pkt transport.Packet
}

// mailbox is an endpoint of the latency-injecting network. The wire makes
// no ordering promise — chaos mode deliberately reorders and duplicates
// deliveries — so in-order, exactly-once delivery is not an assumption
// but an invariant the transport core enforces: the pump hands every
// packet to network.arrive, which resequences it per link before the
// owning goroutine reads the result from ch. The protocols need that
// invariant (in c-2PL especially, a commit's finish message must not be
// overtaken by a later cache release, or a promoted waiter would read a
// stale version).
type mailbox struct {
	ch    chan message
	owner ids.Client

	mu      sync.Mutex
	queue   []delivery
	pumping bool

	// out is the pump's scratch for the messages one arrival makes
	// deliverable; only the single pump goroutine (serialized by the
	// pumping flag under mu) touches it.
	out []any
}

func newMailbox(owner ids.Client, buf int) *mailbox {
	return &mailbox{ch: make(chan message, buf), owner: owner}
}

// enqueue schedules a delivery displace slots before the queue's tail
// (0 appends; chaos reordering passes more) and ensures a pump goroutine
// is draining the queue. It never blocks the caller.
func (b *mailbox) enqueue(n *network, d delivery, displace int) {
	b.mu.Lock()
	pos := len(b.queue) - displace
	if pos < 0 {
		pos = 0
	}
	b.queue = append(b.queue, delivery{})
	copy(b.queue[pos+1:], b.queue[pos:])
	b.queue[pos] = d
	if b.pumping {
		b.mu.Unlock()
		return
	}
	b.pumping = true
	b.mu.Unlock()
	go b.pump(n)
}

// pump delivers queued packets in queue order, sleeping out each one's
// remaining latency and passing it through the transport core; it exits
// when the queue drains.
func (b *mailbox) pump(n *network) {
	for {
		b.mu.Lock()
		if len(b.queue) == 0 {
			b.pumping = false
			b.mu.Unlock()
			return
		}
		d := b.queue[0]
		b.queue = b.queue[1:]
		b.mu.Unlock()
		now := n.now()
		if wait := time.Duration(d.at - now); wait > 0 {
			time.Sleep(wait)
			now = d.at
		}
		b.out = n.arrive(now, b.owner, d.pkt, b.out[:0])
		for _, m := range b.out {
			//repolint:allow gosend -- mailboxes are buffered and the cluster drains stragglers at shutdown (see cluster.shutdown)
			b.ch <- m
		}
		n.wg.Done()
	}
}

// network is the live adapter around the transport core: the core
// decides sequencing, faults, retention, acknowledgements and
// resequencing for every directed link; the network owns what belongs to
// the runtime — the one mutex serializing the core, the clock it reads
// once per event, a *time.Timer per link and timer kind, and the
// mailboxes' delivery waitgroup.
type network struct {
	latency time.Duration
	lookup  func(ids.Client) *mailbox
	epoch   time.Time
	// fatal reports an unrecoverable link (retransmit cap exhausted),
	// at most once; it must not block.
	fatal func(error)

	mu   sync.Mutex
	core *transport.Core

	wg sync.WaitGroup
}

func newNetwork(latency time.Duration, lookup func(ids.Client) *mailbox, cfg transport.Config, fatal func(error)) *network {
	n := &network{latency: latency, lookup: lookup, epoch: time.Now(), fatal: fatal}
	n.core = transport.New(cfg, n.newTimer)
	return n
}

// now is the transport clock: nanoseconds since the network was built.
func (n *network) now() transport.Time { return transport.Time(time.Since(n.epoch)) }

// send hands m to the core for link src→dst and puts the result on the
// wire. Sends never block the caller: even zero-latency deliveries go
// through the destination's pump, because delivering inline from the
// sender's goroutine lets a full mailbox deadlock a send cycle between
// two sites.
func (n *network) send(src, dst ids.Client, m message) {
	n.mu.Lock()
	now := n.now()
	tx := n.core.Send(now, src, dst, m)
	n.wg.Add(tx.Copies())
	n.mu.Unlock()
	n.transmit(now, tx)
}

// fire is a timer callback: the core decides what, if anything, the
// fire transmits. The waitgroup is raised under the lock, so once stop
// has returned no fire can add a delivery.
func (n *network) fire(l transport.Link, kind transport.TimerKind) {
	n.mu.Lock()
	now := n.now()
	tx, ok, err := n.core.Fire(now, l, kind)
	if ok {
		n.wg.Add(tx.Copies())
	}
	n.mu.Unlock()
	if err != nil {
		n.fatal(fmt.Errorf("live: %w", err))
	}
	if ok {
		n.transmit(now, tx)
	}
}

// transmit puts one transmission on the wire: nothing when it was
// partitioned or dropped, the packet at its destination after the link
// latency plus jitter, and a second copy when it was duplicated. Every
// wire delivery leaves here.
func (n *network) transmit(now transport.Time, tx transport.Tx) {
	if tx.Copies() == 0 {
		return
	}
	d := delivery{at: now + transport.Time(n.latency) + tx.Jitter, pkt: tx.Pkt}
	box := n.lookup(tx.Dst)
	if !tx.Drop {
		box.enqueue(n, d, tx.Displace)
	}
	if tx.Duplicate {
		box.enqueue(n, d, 0)
	}
}

// arrive passes one packet, due at now, through the core, appending
// what it makes deliverable to out.
func (n *network) arrive(now transport.Time, dst ids.Client, p transport.Packet, out []any) []any {
	n.mu.Lock()
	out = n.core.Arrive(now, dst, p, out)
	n.mu.Unlock()
	return out
}

// stop disarms every timer and bars retention and acknowledgement; after
// it returns the delivery waitgroup can only go down.
func (n *network) stop() {
	n.mu.Lock()
	n.core.Stop()
	n.mu.Unlock()
}

func (n *network) stats() transport.Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.core.Stats()
}

// linkTimer is one link's timer of one kind: a single *time.Timer,
// re-armed for every deadline the core asks for.
type linkTimer struct {
	n    *network
	l    transport.Link
	kind transport.TimerKind
	t    *time.Timer
}

func (n *network) newTimer(l transport.Link, kind transport.TimerKind) transport.Timer {
	return &linkTimer{n: n, l: l, kind: kind}
}

// Arm runs under the network lock, so the deadline is measured against a
// fresh clock reading: the timer fires at the transport time at.
func (t *linkTimer) Arm(at transport.Time) {
	d := time.Duration(at - t.n.now())
	if t.t == nil {
		t.t = time.AfterFunc(d, t.fire)
		return
	}
	rearm(t.t, d)
}

func (t *linkTimer) Disarm() { t.t.Stop() }

func (t *linkTimer) fire() { t.n.fire(t.l, t.kind) }

// auditLog is a concurrency-safe wrapper over history.Log.
type auditLog struct {
	mu  sync.Mutex
	log history.Log
}

func (a *auditLog) commit(c history.Committed) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.log.Commit(c)
}

func (a *auditLog) abort() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.log.Abort()
}
