package live

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/transport"
)

// hour is one hour in transport time (nanoseconds, as the live cluster
// runs the core).
const hour = transport.Time(time.Hour)

// arqCore returns a core with ARQ engaged on a vclock; timers fire only
// when a test fires them.
func arqCore(rto, maxRTO, ackDelay transport.Time, retransmitCap int) (*transport.Core, *vclock) {
	return newVirtualCore(transport.Config{ARQ: true, RTO: rto, MaxRTO: maxRTO, AckDelay: ackDelay, RetransmitCap: retransmitCap})
}

var link01 = transport.Link{Src: 0, Dst: 1}

// sendN sends n payloads on link 0→1 at the vclock's time.
func sendN(c *transport.Core, v *vclock, n int) []transport.Tx {
	var txs []transport.Tx
	for i := 0; i < n; i++ {
		txs = append(txs, c.Send(v.now, 0, 1, i))
	}
	return txs
}

// ackTo delivers a standalone cumulative ack from site 1 to site 0.
func ackTo(c *transport.Core, v *vclock, cum uint64) {
	c.Arrive(v.now, 0, transport.Packet{Src: 1, Ack: cum}, nil)
}

func TestARQCumulativeAckAdvancement(t *testing.T) {
	c, v := arqCore(hour, 16*hour, hour, 25)
	sendN(c, v, 5)
	_, armed := v.armed(link01, transport.RetransmitTimer)
	if st := c.State(link01); st.Unacked != 5 || !armed {
		t.Fatalf("after 5 sends: unacked=%d armed=%v, want 5 true", st.Unacked, armed)
	}
	// A cumulative ack covers everything at or below it.
	ackTo(c, v, 3)
	_, armed = v.armed(link01, transport.RetransmitTimer)
	if st := c.State(link01); st.Unacked != 2 || st.Acked != 3 || !armed {
		t.Fatalf("after ack 3: unacked=%d acked=%d armed=%v, want 2 3 true", st.Unacked, st.Acked, armed)
	}
	// A stale (lower) ack is a no-op.
	ackTo(c, v, 2)
	if st := c.State(link01); st.Unacked != 2 || st.Acked != 3 {
		t.Fatalf("stale ack regressed state: unacked=%d acked=%d", st.Unacked, st.Acked)
	}
	// Acking the rest empties the buffer and disarms the timer.
	ackTo(c, v, 5)
	_, armed = v.armed(link01, transport.RetransmitTimer)
	if st := c.State(link01); st.Unacked != 0 || st.Acked != 5 || armed {
		t.Fatalf("after ack 5: unacked=%d acked=%d armed=%v, want 0 5 false", st.Unacked, st.Acked, armed)
	}
}

func TestARQAckResetsBackoff(t *testing.T) {
	c, v := arqCore(hour, 16*hour, hour, 25)
	sendN(c, v, 2)
	backoff := func(fires int) {
		t.Helper()
		for i := 0; i < fires; i++ {
			if _, ok, err := v.fire(c, link01, transport.RetransmitTimer); !ok || err != nil {
				t.Fatalf("fire %d: retransmitted=%v err=%v", i, ok, err)
			}
		}
	}
	// Accumulate backoff for real, then watch an ack reset it.
	backoff(3)
	if st := c.State(link01); st.RTO != 8*hour || st.Attempts != 3 {
		t.Fatalf("after 3 fires: rto=%v attempts=%d, want 8h 3", time.Duration(st.RTO), st.Attempts)
	}
	ackTo(c, v, 1)
	if st := c.State(link01); st.RTO != hour || st.Attempts != 0 {
		t.Fatalf("ack did not reset backoff: rto=%v attempts=%d", time.Duration(st.RTO), st.Attempts)
	}
	if at, _ := v.armed(link01, transport.RetransmitTimer); at != v.now+hour {
		t.Fatalf("ack re-armed the timer for %v, want one initial RTO from now", time.Duration(at-v.now))
	}
	// Only frontier ADVANCE resets backoff: a duplicate of the same ack
	// carries no evidence the link recovered, so the accumulated state
	// must survive it untouched.
	backoff(2)
	ackTo(c, v, 1)
	if st := c.State(link01); st.RTO != 4*hour || st.Attempts != 2 {
		t.Fatalf("stale ack reset backoff: rto=%v attempts=%d, want 4h 2", time.Duration(st.RTO), st.Attempts)
	}
}

// downCore returns an ARQ core whose every link is inside a partition
// window almost always: Down covers all but 1ms of each cycle, so
// whatever phase a link draws, it is down at any sampled instant bar a
// one-in-3.6-million sliver, fixed by the seed.
func downCore(seed uint64) (*transport.Core, *vclock) {
	return newVirtualCore(transport.Config{
		Seed: seed, PartProb: 1, PartDown: hour, PartEvery: hour + transport.Time(time.Millisecond),
		ARQ: true, RTO: hour, MaxRTO: 4 * hour, AckDelay: hour, RetransmitCap: 3,
	})
}

// TestARQQuarantinePausesCapAndBackoff fires the retransmit timer while
// the link is inside a partition window, well past the cap: every fire
// must be quarantined — burning neither retransmit attempts nor backoff
// growth, and never tripping the cap — because an outage is a property
// of the link, not evidence the peer died. Each fire lands half an hour
// after its deadline, inside the next window.
func TestARQQuarantinePausesCapAndBackoff(t *testing.T) {
	c, v := downCore(1)
	if tx := c.Send(v.now, 0, 1, "x"); !tx.Partitioned {
		t.Fatal("precondition: link not inside a partition window")
	}
	for i := 0; i < 10; i++ {
		at, ok := v.armed(link01, transport.RetransmitTimer)
		if !ok {
			t.Fatalf("fire %d: retransmit timer disarmed", i)
		}
		v.now = at + hour/2
		if _, sent, err := c.Fire(v.now, link01, transport.RetransmitTimer); sent || err != nil {
			t.Fatalf("fire %d inside a window: transmitted=%v err=%v", i, sent, err)
		}
	}
	if st := c.State(link01); st.Attempts != 0 || st.RTO != hour {
		t.Fatalf("quarantined fires burned attempts=%d, grew backoff to %v", st.Attempts, time.Duration(st.RTO))
	}
	st := c.Stats()
	if st.Quarantined != 10 {
		t.Fatalf("quarantined = %d, want 10", st.Quarantined)
	}
	if st.Retransmits != 0 {
		t.Fatalf("quarantined fires transmitted %d times into a down link", st.Retransmits)
	}
}

// TestARQStaleTimerAfterQuarantineAckIsNoop is the timer-audit
// regression: a quarantine re-arms for the heal point, so a fire left
// over from the pre-quarantine arming — and any fire after an ack has
// drained the packet — must be inert. A stale fire that retransmitted an
// acked packet would resurrect it at the peer and count phantom
// retransmits.
func TestARQStaleTimerAfterQuarantineAckIsNoop(t *testing.T) {
	c, v := downCore(1)
	c.Send(v.now, 0, 1, "x")
	preAt, _ := v.armed(link01, transport.RetransmitTimer)
	v.fire(c, link01, transport.RetransmitTimer) // quarantined: re-armed for the heal point
	if got := c.Stats().Quarantined; got != 1 {
		t.Fatalf("quarantined = %d, want 1", got)
	}
	before := c.Stats().Messages
	// The pre-quarantine arming fires again: early for the current one.
	if _, sent, _ := c.Fire(preAt, link01, transport.RetransmitTimer); sent {
		t.Fatal("stale pre-quarantine fire transmitted")
	}
	// The ack lands while the quarantine timer is parked.
	ackTo(c, v, 1)
	if st := c.State(link01); st.Unacked != 0 {
		t.Fatalf("unacked = %d after ack, want 0", st.Unacked)
	}
	if _, sent, _ := c.Fire(v.now+2*hour, link01, transport.RetransmitTimer); sent {
		t.Fatal("fire after the ack transmitted")
	}
	if st := c.Stats(); st.Messages != before || st.Retransmits != 0 || st.Quarantined != 1 {
		t.Fatalf("stale fires moved counters: messages %d->%d retransmits=%d quarantined=%d",
			before, st.Messages, st.Retransmits, st.Quarantined)
	}
}

// TestARQRetransmitBackoffScheduling: an unacked packet is retransmitted
// at exactly 10, 30, 70 and 110 ms — timeouts of 10, 20, 40 and 40 ms,
// doubling up to MaxRTO — and the receiver delivers it exactly once
// however many copies arrive.
func TestARQRetransmitBackoffScheduling(t *testing.T) {
	ms := transport.Time(time.Millisecond)
	c, v := arqCore(10*ms, 40*ms, hour, 100)
	copies := []transport.Tx{c.Send(v.now, 0, 1, "payload")}
	for _, want := range []transport.Time{10 * ms, 30 * ms, 70 * ms, 110 * ms} {
		if at, _ := v.armed(link01, transport.RetransmitTimer); at != want {
			t.Fatalf("retransmit armed for %v, want %v", time.Duration(at), time.Duration(want))
		}
		tx, ok, err := v.fire(c, link01, transport.RetransmitTimer)
		if !ok || err != nil {
			t.Fatalf("fire at %v: retransmitted=%v err=%v", time.Duration(want), ok, err)
		}
		copies = append(copies, tx)
	}
	st := c.Stats()
	if st.Retransmits != 4 || st.MaxRTO != 40*ms {
		t.Fatalf("retransmits=%d maxRTO=%v, want 4 and 40ms", st.Retransmits, time.Duration(st.MaxRTO))
	}
	if rto := c.State(link01).RTO; rto != 40*ms {
		t.Fatalf("backoff rto = %v, want capped at 40ms", time.Duration(rto))
	}
	// The consumer sees the message exactly once; retransmits are dups.
	var got []any
	for _, tx := range copies {
		got = c.Arrive(v.now, 1, tx.Pkt, got)
	}
	if len(got) != 1 || got[0] != "payload" {
		t.Fatalf("five copies delivered %v, want the payload once", got)
	}
}

// TestARQRetransmitOfAckedSeqIsNoop pins both halves of the no-op: a
// timer fire after everything was acked transmits nothing, and a fire
// early for the current arming is equally inert.
func TestARQRetransmitOfAckedSeqIsNoop(t *testing.T) {
	c, v := arqCore(hour, 16*hour, hour, 25)
	sendN(c, v, 2)
	ackTo(c, v, 2)
	before := c.Stats().Messages
	if _, sent, _ := c.Fire(v.now+hour, link01, transport.RetransmitTimer); sent {
		t.Fatal("retransmit of a fully acked link transmitted")
	}
	// A stale fire against a nonempty buffer is equally inert.
	c.Send(v.now, 0, 1, "fresh")
	before++
	if _, sent, _ := c.Fire(v.now+hour/2, link01, transport.RetransmitTimer); sent {
		t.Fatal("early fire retransmitted")
	}
	if st := c.Stats(); st.Messages != before || st.Retransmits != 0 {
		t.Fatalf("no-op fires moved counters: messages %d->%d retransmits=%d", before, st.Messages, st.Retransmits)
	}
}

// TestARQAckCoalescing: five deliveries inside one AckDelay window
// produce exactly one standalone cumulative ack, which drains the whole
// sender buffer.
func TestARQAckCoalescing(t *testing.T) {
	c, v := arqCore(hour, 16*hour, 50*transport.Time(time.Millisecond), 25)
	const n = 5
	for _, tx := range sendN(c, v, n) {
		c.Arrive(v.now, 1, tx.Pkt, nil)
	}
	tx, ok, _ := v.fire(c, link01, transport.AckTimer)
	if !ok || tx.Pkt.Seq != 0 || tx.Pkt.Ack != n {
		t.Fatalf("ack fire sent %+v (sent=%v), want one standalone ack of %d", tx, ok, n)
	}
	c.Arrive(v.now, 0, tx.Pkt, nil)
	if st := c.State(link01); st.Unacked != 0 || st.Acked != n {
		t.Fatalf("ack never drained the buffer: unacked=%d acked=%d", st.Unacked, st.Acked)
	}
	st := c.Stats()
	if st.AcksSent != 1 {
		t.Fatalf("standalone acks = %d, want 1 (coalesced)", st.AcksSent)
	}
	if st.AcksCoalesced != n-1 {
		t.Fatalf("coalesced arrivals = %d, want %d", st.AcksCoalesced, n-1)
	}
}

// TestARQPiggybackSuppressesStandaloneAck: reverse-direction traffic
// inside the coalescing window carries the ack, so no standalone ack is
// ever transmitted.
func TestARQPiggybackSuppressesStandaloneAck(t *testing.T) {
	c, v := arqCore(hour, 16*hour, hour, 25)
	ping := c.Send(v.now, 0, 1, "ping")
	c.Arrive(v.now, 1, ping.Pkt, nil)
	// The standalone ack is parked behind the long AckDelay; the reply
	// must piggyback it.
	pong := c.Send(v.now, 1, 0, "pong")
	if pong.Pkt.Ack != 1 {
		t.Fatalf("reply carries ack %d, want 1", pong.Pkt.Ack)
	}
	if _, armed := v.armed(link01, transport.AckTimer); armed {
		t.Fatal("piggyback left the standalone ack armed")
	}
	c.Arrive(v.now, 0, pong.Pkt, nil)
	if st := c.State(link01); st.Unacked != 0 {
		t.Fatal("piggybacked ack never reached the sender")
	}
	if _, sent, _ := c.Fire(v.now+hour, link01, transport.AckTimer); sent {
		t.Fatal("standalone ack sent after the piggyback")
	}
	st := c.Stats()
	if st.AcksPiggybacked == 0 {
		t.Fatal("no piggybacked ack counted")
	}
	if st.AcksSent != 0 {
		t.Fatalf("standalone acks = %d, want 0 (piggyback should win)", st.AcksSent)
	}
}

// TestARQDupArrivalTriggersReack: a duplicate of an already-delivered
// seq means the sender missed our ack; a fresh standalone ack must go
// out even though the cumulative point did not advance.
func TestARQDupArrivalTriggersReack(t *testing.T) {
	c, v := arqCore(hour, 16*hour, 5*transport.Time(time.Millisecond), 25)
	first := transport.Packet{Src: 0, Seq: 1, Msg: "m"}
	c.Arrive(v.now, 1, first, nil)
	if tx, ok, _ := v.fire(c, link01, transport.AckTimer); !ok || tx.Pkt.Ack != 1 {
		t.Fatalf("first ack: sent=%v ack=%d, want 1", ok, tx.Pkt.Ack)
	}
	// Same seq again: no advance, but the retransmission demands a re-ack.
	c.Arrive(v.now, 1, first, nil)
	if tx, ok, _ := v.fire(c, link01, transport.AckTimer); !ok || tx.Pkt.Ack != 1 {
		t.Fatalf("re-ack: sent=%v ack=%d, want 1", ok, tx.Pkt.Ack)
	}
	if got := c.Stats().AcksSent; got != 2 {
		t.Fatalf("acksSent = %d, want 2", got)
	}
}

// twoSiteRig wires two mailboxes through one network under lossy chaos,
// which engages ARQ: the full reliable-delivery loop.
func twoSiteRig(t *testing.T, cfg ARQConfig, chaos ChaosConfig, seed uint64, latency time.Duration) (*network, *mailbox, *mailbox, chan error) {
	t.Helper()
	a, b := newMailbox(0, 4096), newMailbox(1, 4096)
	boxes := map[ids.Client]*mailbox{0: a, 1: b}
	fatals := make(chan error, 1)
	net := newNetwork(latency, func(c ids.Client) *mailbox { return boxes[c] }, coreConfig(Config{Seed: seed, Chaos: chaos, ARQ: cfg}), func(err error) {
		select {
		case fatals <- err:
		default:
		}
	})
	return net, a, b, fatals
}

// unackedOn reads link l's retransmission buffer length under the
// network lock.
func unackedOn(net *network, l transport.Link) int {
	net.mu.Lock()
	defer net.mu.Unlock()
	return net.core.State(l).Unacked
}

// TestARQReliableLinkDropDupReorder is the satellite interaction test:
// one link under drop×duplicate×reorder chaos still hands the consumer
// every message exactly once and in order, because the ARQ layer
// retransmits what the wire loses and the resequencer absorbs what it
// multiplies or scrambles.
func TestARQReliableLinkDropDupReorder(t *testing.T) {
	chaos := ChaosConfig{Drop: 0.3, Duplicate: 0.3, Reorder: 0.3}
	for seed := uint64(1); seed <= 3; seed++ {
		net, _, b, fatals := twoSiteRig(t,
			ARQConfig{RTO: 2 * time.Millisecond, MaxRTO: 16 * time.Millisecond, RetransmitCap: 100, AckDelay: 500 * time.Microsecond},
			chaos, seed, 20*time.Microsecond)
		const count = 300
		var sender sync.WaitGroup
		sender.Add(1)
		go func() {
			defer sender.Done()
			for i := 0; i < count; i++ {
				net.send(0, 1, payload{src: 0, n: i})
			}
		}()
		for want := 0; want < count; want++ {
			select {
			case m := <-b.ch:
				p := m.(payload)
				if p.n != want {
					t.Fatalf("seed %d: delivery %d arrived, want %d (loss not recovered in order)", seed, p.n, want)
				}
			case err := <-fatals:
				t.Fatalf("seed %d: link declared dead during recoverable chaos: %v", seed, err)
			case <-time.After(30 * time.Second):
				t.Fatalf("seed %d: delivery stalled at %d of %d", seed, want, count)
			}
		}
		sender.Wait()
		// Wait until every envelope is acked, then stop the layer and
		// settle the wire before checking nothing extra leaks through.
		deadline := time.Now().Add(30 * time.Second)
		for {
			if unackedOn(net, link01) == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("seed %d: sender buffer never drained", seed)
			}
			time.Sleep(time.Millisecond)
		}
		net.stop()
		net.wg.Wait()
		select {
		case m := <-b.ch:
			t.Fatalf("seed %d: extra delivery %v (duplicate leaked)", seed, m)
		default:
		}
		if st := net.stats(); st.Retransmits == 0 {
			t.Fatalf("seed %d: 30%% drop produced no retransmits", seed)
		}
	}
}

// TestARQRetransmitCapFailsLoudly: a link that drops everything must
// exhaust its retransmit budget and report a dead link through the fatal
// hook — an explicit error, never a silent hang.
func TestARQRetransmitCapFailsLoudly(t *testing.T) {
	net, _, _, fatals := twoSiteRig(t,
		ARQConfig{RTO: time.Millisecond, MaxRTO: 2 * time.Millisecond, RetransmitCap: 3, AckDelay: time.Millisecond},
		ChaosConfig{Drop: 1}, 1, 0)
	defer net.stop()
	net.send(0, 1, "doomed")
	select {
	case err := <-fatals:
		if !strings.Contains(err.Error(), "retransmit cap") {
			t.Fatalf("fatal error %q does not name the retransmit cap", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("total loss never reported a dead link")
	}
	// The failed flag must stop the layer from retransmitting further.
	n := net.stats().Retransmits
	time.Sleep(20 * time.Millisecond)
	if again := net.stats().Retransmits; again != n {
		t.Fatalf("retransmits kept running after the link was declared dead: %d -> %d", n, again)
	}
}
