// Package transport is the per-link delivery discipline of the live
// cluster as one deterministic state machine: sequence stamping, the
// chaos policy's fault decisions, the ARQ layer's retention,
// acknowledgements and retransmission, and resequencing back to
// exactly-once, in-order streams.
//
// It keeps one record per directed link. Events go in — a send, a packet
// arrival, a timer fire — each carrying the adapter's clock reading;
// transmissions, in-order deliveries and timer requests come out. The
// core reads no clock, starts no goroutine and takes no lock, so the same
// code runs under the goroutine cluster (internal/live, nanoseconds of
// wall time behind one mutex) and on a simulation kernel's modelled time.
package transport

import (
	"fmt"
	"math"

	"repro/internal/ids"
	"repro/internal/rng"
)

// Time is the adapter's clock in its own integer unit: nanoseconds in
// the live cluster, kernel ticks under a simulator.
type Time = int64

// Link identifies one directed link between sites.
type Link struct{ Src, Dst ids.Client }

func (l Link) reverse() Link { return Link{Src: l.Dst, Dst: l.Src} }

// Config fixes the faults the chaos policy injects and the ARQ tuning,
// all times in the adapter's unit. Defaults are resolved by the adapter:
// every field here is used as given.
type Config struct {
	// Seed derives every link's fault streams.
	Seed uint64

	// Reorder, Duplicate and Drop are per-transmission probabilities;
	// Jitter is the maximum extra delay drawn per transmission.
	Reorder, Duplicate, Drop float64
	Jitter                   Time
	// PartProb is the probability a directed link suffers partition
	// windows at all; afflicted links are down for PartDown of every
	// PartEvery, at a per-link phase.
	PartProb            float64
	PartDown, PartEvery Time

	// ARQ engages retention, cumulative acknowledgements and
	// retransmission; the four fields below apply only with it.
	ARQ           bool
	RTO, MaxRTO   Time // initial retransmission timeout and its backoff cap
	RetransmitCap int  // retransmissions of one packet before the link is dead
	AckDelay      Time // coalescing window of a standalone acknowledgement
}

func (c Config) partitioned() bool { return c.PartProb > 0 && c.PartDown > 0 }

func (c Config) chaotic() bool {
	return c.Reorder > 0 || c.Duplicate > 0 || c.Jitter > 0 || c.Drop > 0 || c.partitioned()
}

// Packet is one transmission's content: a sequenced message with the
// cumulative acknowledgement for the reverse link riding on it, or —
// Seq 0 — a standalone acknowledgement. Standalone acks are unsequenced
// and unreliable: a lost one is harmless because acks are cumulative and
// a retransmission arriving as a duplicate provokes a fresh one.
type Packet struct {
	Src ids.Client
	Seq uint64
	// Ack: the sender has delivered every seq <= Ack from the
	// destination; 0 carries no information.
	Ack uint64
	Msg any
}

// Directive is the chaos policy's fault decision for one transmission.
type Directive struct {
	Displace  int // insert this many slots before the destination queue's tail
	Duplicate bool
	Jitter    Time
	Drop      bool
	// Partitioned kills the transmission outright: the link is inside a
	// down window, so the duplicate copy is lost too.
	Partitioned bool
}

// Tx is one transmission: a packet for Dst with the faults the chaos
// policy applied to it. The adapter delivers the packet unless it was
// dropped, and once more if it was duplicated; a partitioned Tx delivers
// nothing.
type Tx struct {
	Dst ids.Client
	Pkt Packet
	Directive
}

// Copies is how many deliveries the transmission makes.
func (t Tx) Copies() int {
	if t.Partitioned {
		return 0
	}
	n := 0
	if !t.Drop {
		n++
	}
	if t.Duplicate {
		n++
	}
	return n
}

// TimerKind names one of a link's two timers.
type TimerKind uint8

const (
	// RetransmitTimer is the sender's timeout for the link's lowest
	// unacknowledged packet.
	RetransmitTimer TimerKind = iota
	// AckTimer is the receiver's coalescing window before a standalone
	// acknowledgement goes back.
	AckTimer
)

// Timer is one of the adapter's timers. The core owns one per link and
// kind and reports its fires through Core.Fire. A fire the core no
// longer wants — disarmed, or early for the current arming — is ignored,
// so an adapter may deliver stale fires.
type Timer interface {
	Arm(at Time) // fire at at, replacing any earlier arming
	Disarm()
}

// Stats are the transport's counters.
type Stats struct {
	Messages        int64 // transmissions, a duplicate counting twice
	Dropped         int64 // transmissions lost to Drop
	PartitionDrops  int64 // transmissions killed inside partition windows
	Retransmits     int64
	Quarantined     int64 // retransmit fires deferred by a partition window
	AcksSent        int64 // standalone acks transmitted
	AcksCoalesced   int64 // ack-worthy arrivals absorbed by a pending ack
	AcksPiggybacked int64 // acks that rode on reverse-direction packets
	MaxRTO          Time  // longest retransmission timeout actually waited out
}

// MaxGap bounds how many out-of-order packets one link may hold at its
// receiver. The wire only permutes packets already in flight, so a gap
// this wide means a lost or corrupt sequence number, and the run must die
// loudly rather than hang waiting for a seq that will never arrive.
const MaxGap = 1 << 16

// chaosSeq is the rng sequence selector reserved for the chaos policy,
// distinct from the workload generators' streams so enabling chaos does
// not shift the transaction mix.
const chaosSeq = 0xC1A05

// dropSplit and partSplit label each link's drop and partition streams,
// split off its main fault stream.
const (
	dropSplit = 0xD20B
	partSplit = 0x9A27
)

// link is everything known about one directed link: the sender's half
// (sequence counter, retransmission buffer and backoff), the receiver's
// half (delivery point, gap buffer, ack state) and the link's fault
// streams.
type link struct {
	key Link

	// Sender half.
	seq      uint64   // last stamped sequence number
	unacked  []Packet // retained, not yet acked; ascending, contiguous seqs
	acked    uint64   // highest cumulative ack received
	attempts int      // retransmissions of the current lowest unacked
	rto      Time
	rtx      timerState

	// Receiver half.
	delivered uint64         // every seq <= delivered was handed over in order
	held      map[uint64]any // arrivals past a gap, by seq
	ackSent   uint64         // last cumulative ack transmitted
	reack     bool           // a duplicate arrival demands an ack without advance
	ack       timerState

	// Fault streams: main feeds reorder/duplicate/jitter, drop its own
	// split, and the partition placement is fixed at creation.
	main, drop *rng.Stream
	afflicted  bool
	phase      Time
}

// timerState is one of a link's timers as the core sees it.
type timerState struct {
	t     Timer // created on first arming
	armed bool
	at    Time
}

// Core is the transport state machine. It is not safe for concurrent
// use: the adapter serializes every call.
type Core struct {
	cfg      Config
	chaos    bool
	newTimer func(Link, TimerKind) Timer
	links    map[Link]*link
	all      []*link // the same records, in creation order
	stats    Stats
	stopped  bool // shutdown: transmit once, retain and ack nothing
	failed   bool // a link was presumed dead; retransmission is over
}

// New returns a core with no links. newTimer supplies the adapter's
// timer for a link and kind, the first time the core arms it.
func New(cfg Config, newTimer func(Link, TimerKind) Timer) *Core {
	return &Core{cfg: cfg, chaos: cfg.chaotic(), newTimer: newTimer, links: make(map[Link]*link)}
}

// Stats returns the counters.
func (c *Core) Stats() Stats { return c.stats }

// LinkState is a snapshot of one link's record, for tests and
// diagnostics.
type LinkState struct {
	Unacked   int    // packets retained for retransmission
	Acked     uint64 // highest cumulative ack the sender received
	Attempts  int    // retransmissions of the lowest unacked packet
	RTO       Time   // the sender's current retransmission timeout
	Delivered uint64 // the receiver's in-order delivery point
	Held      int    // arrivals the receiver holds past a gap
}

// State returns link l's snapshot; a link never touched is all zero.
func (c *Core) State(l Link) LinkState {
	k := c.links[l]
	if k == nil {
		return LinkState{}
	}
	return LinkState{Unacked: len(k.unacked), Acked: k.acked, Attempts: k.attempts, RTO: k.rto, Delivered: k.delivered, Held: len(k.held)}
}

// get returns link l's record, creating it on first use. Every fault
// stream is derived from the seed and the link's endpoints alone, never
// from shared stream state, so a link's faults do not depend on which
// links happened to be touched first. The three streams are split
// unconditionally, in fixed order, so enabling one fault class never
// shifts another's draws.
func (c *Core) get(l Link) *link {
	k := c.links[l]
	if k != nil {
		return k
	}
	k = &link{key: l, rto: c.cfg.RTO}
	if c.chaos {
		label := uint64(uint32(l.Src))<<32 | uint64(uint32(l.Dst))
		k.main = rng.New(c.cfg.Seed, chaosSeq).Split(label)
		k.drop = k.main.Split(dropSplit)
		part := k.main.Split(partSplit)
		if c.cfg.partitioned() {
			k.afflicted = part.Bool(c.cfg.PartProb)
			k.phase = Time(part.Float64() * float64(c.cfg.PartEvery))
		}
	}
	c.links[l] = k
	c.all = append(c.all, k)
	return k
}

// Send stamps msg with link src→dst's next sequence number, retains it
// for retransmission when ARQ is engaged (before the first transmission,
// so a lost first copy is already recoverable), and returns the
// transmission.
func (c *Core) Send(now Time, src, dst ids.Client, msg any) Tx {
	k := c.get(Link{Src: src, Dst: dst})
	k.seq = nextSeq(k.seq)
	p := Packet{Src: src, Seq: k.seq, Msg: msg}
	if c.cfg.ARQ && !c.stopped {
		p.Ack = c.piggyback(k)
		k.unacked = append(k.unacked, p)
		if !k.rtx.armed {
			c.arm(&k.rtx, k.key, RetransmitTimer, now+k.rto)
		}
	}
	return c.transmit(now, k, p)
}

// Arrive takes one packet arriving at dst and appends the messages it
// makes deliverable, in order, to deliver: none for a duplicate, an
// acknowledgement or an arrival past a gap, several when it closes one.
func (c *Core) Arrive(now Time, dst ids.Client, p Packet, deliver []any) []any {
	if p.Seq == 0 {
		if p.Ack == 0 {
			panic(fmt.Sprintf("transport: unstamped %T from %v", p.Msg, p.Src))
		}
		c.onAck(now, Link{Src: dst, Dst: p.Src}, p.Ack)
		return deliver
	}
	k := c.get(Link{Src: p.Src, Dst: dst})
	dup := p.Seq <= k.delivered
	deliver = k.accept(p, deliver)
	if c.cfg.ARQ {
		if p.Ack > 0 {
			c.onAck(now, Link{Src: dst, Dst: p.Src}, p.Ack)
		}
		if !c.stopped {
			c.noteReceived(now, k, dup)
		}
	}
	return deliver
}

// Fire handles link l's timer of kind kind going off at now. It returns
// the transmission the fire makes, if any, and an error once a link has
// exhausted its retransmit budget — loss without progress ends loudly,
// never in a hang.
func (c *Core) Fire(now Time, l Link, kind TimerKind) (Tx, bool, error) {
	k := c.links[l]
	if k == nil || c.stopped {
		return Tx{}, false, nil
	}
	if kind == AckTimer {
		return c.fireAck(now, k)
	}
	return c.fireRetransmit(now, k)
}

// Stop ends the transport: every timer is disarmed, later sends are
// transmitted once without retention, and arrivals are resequenced but
// no longer acknowledged.
func (c *Core) Stop() {
	c.stopped = true
	for _, k := range c.all {
		c.disarm(&k.rtx)
		c.disarm(&k.ack)
	}
}

// nextSeq returns the sequence number after cur. Sequence numbers start
// at 1 and must never wrap: a wrapped counter would alias a live seq
// with an ancient one and the dedup would silently drop fresh messages.
func nextSeq(cur uint64) uint64 {
	if cur == math.MaxUint64 {
		panic("transport: link sequence number wrapped")
	}
	return cur + 1
}

// accept resequences one sequenced arrival into out.
func (k *link) accept(p Packet, out []any) []any {
	want := k.delivered + 1
	switch {
	case p.Seq < want:
		return out // duplicate of a delivered message
	case p.Seq > want:
		if k.held == nil {
			k.held = make(map[uint64]any)
		}
		if _, dup := k.held[p.Seq]; !dup {
			if len(k.held) >= MaxGap {
				panic(fmt.Sprintf("transport: gap on %v→%v exceeds %d (lost or corrupt sequence?)", k.key.Src, k.key.Dst, MaxGap))
			}
			k.held[p.Seq] = p.Msg
		}
		return out
	}
	out = append(out, p.Msg)
	want = nextSeq(want)
	for len(k.held) > 0 {
		m, ok := k.held[want]
		if !ok {
			break
		}
		delete(k.held, want)
		out = append(out, m)
		want = nextSeq(want)
	}
	k.delivered = want - 1
	return out
}

// transmit applies the chaos policy to one packet on link k and counts
// it. Every transmission — fresh send, retransmission, standalone ack —
// leaves the core here.
func (c *Core) transmit(now Time, k *link, p Packet) Tx {
	tx := Tx{Dst: k.key.Dst, Pkt: p}
	if c.chaos {
		tx.Directive = c.roll(now, k)
	}
	n := int64(1)
	if tx.Duplicate {
		n = 2
	}
	c.stats.Messages += n
	switch {
	case tx.Partitioned:
		c.stats.PartitionDrops += n
	case tx.Drop:
		c.stats.Dropped++
	}
	return tx
}

// roll decides the faults of one transmission on link k at now. The
// per-transmission draws happen whether or not the link is inside a
// partition window, so a window never shifts the other decisions.
func (c *Core) roll(now Time, k *link) Directive {
	var d Directive
	if c.cfg.Reorder > 0 && k.main.Bool(c.cfg.Reorder) {
		d.Displace = k.main.IntRange(1, 3)
	}
	if c.cfg.Duplicate > 0 && k.main.Bool(c.cfg.Duplicate) {
		d.Duplicate = true
	}
	if c.cfg.Jitter > 0 {
		d.Jitter = Time(k.main.Float64() * float64(c.cfg.Jitter))
	}
	if c.cfg.Drop > 0 && k.drop.Bool(c.cfg.Drop) {
		d.Drop = true
	}
	d.Partitioned = c.downFor(now, k) > 0
	return d
}

// downFor reports how much longer link k stays inside a partition window
// at now; zero means the link is up.
func (c *Core) downFor(now Time, k *link) Time {
	if !k.afflicted {
		return 0
	}
	if off := (now + k.phase) % c.cfg.PartEvery; off < c.cfg.PartDown {
		return c.cfg.PartDown - off
	}
	return 0
}

// piggyback returns the cumulative ack to ride on a packet on link k:
// what k's sender has delivered from k's receiver, on the reverse link.
// A pending standalone ack this covers is cancelled.
func (c *Core) piggyback(k *link) uint64 {
	r := c.links[k.key.reverse()]
	if r == nil || r.delivered == 0 {
		return 0
	}
	if r.delivered > r.ackSent || r.reack {
		c.stats.AcksPiggybacked++
	}
	r.ackSent = r.delivered
	r.reack = false
	c.disarm(&r.ack)
	return r.delivered
}

// onAck applies a cumulative ack to the sender half of link l: every
// packet with seq <= cum leaves the retransmission buffer, the backoff
// resets, and the timer re-arms for the new lowest unacked packet, or
// disarms when none remain. A stale ack carries no evidence the link
// recovered and changes nothing.
func (c *Core) onAck(now Time, l Link, cum uint64) {
	k := c.links[l]
	if k == nil || cum <= k.acked {
		return
	}
	k.acked = cum
	n := 0
	for n < len(k.unacked) && k.unacked[n].Seq <= cum {
		n++
	}
	rest := copy(k.unacked, k.unacked[n:])
	clear(k.unacked[rest:])
	k.unacked = k.unacked[:rest]
	k.attempts = 0
	k.rto = c.cfg.RTO
	if !c.stopped && len(k.unacked) > 0 {
		c.arm(&k.rtx, l, RetransmitTimer, now+k.rto)
	} else {
		c.disarm(&k.rtx)
	}
}

// noteReceived schedules the acknowledgement of one arrival on link k:
// an advance past what was acked — or a duplicate of a delivered seq,
// meaning the sender missed our ack — arms a standalone ack after the
// coalescing delay, unless one is pending or reverse traffic piggybacks
// it first.
func (c *Core) noteReceived(now Time, k *link, dup bool) {
	if dup {
		k.reack = true
	}
	if k.delivered <= k.ackSent && !k.reack {
		return
	}
	if k.ack.armed {
		c.stats.AcksCoalesced++
		return
	}
	c.arm(&k.ack, k.key, AckTimer, now+c.cfg.AckDelay)
}

// fireAck sends one standalone cumulative ack back to link k's sender.
func (c *Core) fireAck(now Time, k *link) (Tx, bool, error) {
	if !c.due(now, &k.ack) {
		return Tx{}, false, nil
	}
	if k.delivered <= k.ackSent && !k.reack {
		return Tx{}, false, nil
	}
	k.ackSent = k.delivered
	k.reack = false
	c.stats.AcksSent++
	return c.transmit(now, c.get(k.key.reverse()), Packet{Src: k.key.Dst, Ack: k.delivered}), true, nil
}

// fireRetransmit re-sends link k's lowest unacked packet with a
// refreshed piggyback ack, doubling the backoff up to MaxRTO. A fire
// whose round trip crosses a partition window is quarantined instead: an
// outage is a fact about the link, not evidence the peer died, so it
// burns neither attempts nor backoff and re-arms for the heal point.
func (c *Core) fireRetransmit(now Time, k *link) (Tx, bool, error) {
	if c.failed || !c.due(now, &k.rtx) || len(k.unacked) == 0 {
		return Tx{}, false, nil
	}
	// Partitions are directed: a down reverse path eats every ack, which
	// is just as unable to make progress.
	if down := max(c.downFor(now, k), c.downFor(now, c.get(k.key.reverse()))); down > 0 {
		c.stats.Quarantined++
		c.arm(&k.rtx, k.key, RetransmitTimer, now+down)
		return Tx{}, false, nil
	}
	if k.attempts >= c.cfg.RetransmitCap {
		c.failed = true
		return Tx{}, false, fmt.Errorf("retransmit cap (%d) exhausted on link %v→%v at seq %d — link presumed dead",
			c.cfg.RetransmitCap, k.key.Src, k.key.Dst, k.unacked[0].Seq)
	}
	p := k.unacked[0]
	p.Ack = c.piggyback(k)
	k.attempts++
	c.stats.MaxRTO = max(c.stats.MaxRTO, k.rto) // the timeout this fire waited out
	k.rto = min(2*k.rto, c.cfg.MaxRTO)
	c.stats.Retransmits++
	c.arm(&k.rtx, k.key, RetransmitTimer, now+k.rto)
	return c.transmit(now, k, p), true, nil
}

// due consumes a fire of timer t at now: true when t was armed for a
// time at or before now. An early fire (a stale arming that raced a
// re-arm) re-arms t for its deadline.
func (c *Core) due(now Time, t *timerState) bool {
	if !t.armed {
		return false
	}
	if now < t.at {
		t.t.Arm(t.at)
		return false
	}
	t.armed = false
	return true
}

func (c *Core) arm(t *timerState, l Link, kind TimerKind, at Time) {
	if t.t == nil {
		t.t = c.newTimer(l, kind)
	}
	t.armed, t.at = true, at
	t.t.Arm(at)
}

func (c *Core) disarm(t *timerState) {
	if t.armed {
		t.armed = false
		t.t.Disarm()
	}
}
