package transport

import (
	"flag"
	"fmt"
	"testing"

	"repro/internal/ids"
	"repro/internal/rng"
	"repro/internal/sim"
)

var twinSeeds = flag.Int("twin.seeds", 200, "seeds TestPartitionTwin sweeps")

// The live test TestChaosPartitionHealsBeyondRetransmitBudget's exact
// budget: a 40 ms window every 400 ms on every directed link, against a
// retransmit budget of 1 + 2 + 2 + 2 ms, 100 µs links and a 1 ms ack
// delay. Kernel ticks are nanoseconds.
var twinConfig = Config{
	PartProb: 1, PartDown: 40 * ms, PartEvery: 400 * ms,
	ARQ: true, RTO: 1 * ms, MaxRTO: 2 * ms, RetransmitCap: 3, AckDelay: 1 * ms,
}

const (
	twinLatency = 100 * us
	twinClients = 6 // plus the server: seven sites, as the live chaos suite builds
	twinRun     = 2 * 400 * ms
)

// twinMsg is one protocol message of the stand-in traffic; n numbers it
// on its link, so the receiver can check exactly-once, in-order delivery.
type twinMsg struct {
	kind byte // 'q' request, 'r' reply, 'h' client-to-client hand-off
	n    int
}

// twin runs the transport core under sim.Kernel: the modelled-time twin
// of the live partition test. Its traffic stands in for g-2PL — each
// exchange is a client's request to the server, the server's reply and
// the client's hand-off of the item to the next client, the shape of a
// g-2PL forward — with no protocol state behind it; running the full
// protocol over this core under the simulator is a later step.
type twin struct {
	k     *sim.Kernel
	c     *Core
	think *rng.Stream
	sent  map[Link]int // messages sent per link
	got   map[Link]int // messages delivered per link
	open  int          // exchanges started and not yet answered
	err   error        // first delivery violation or dead link
	buf   []any
}

// simTimer is one link's timer as a kernel event.
type simTimer struct {
	tw   *twin
	l    Link
	kind TimerKind
	ev   *sim.Event
}

func (s *simTimer) Arm(at Time) {
	s.Disarm()
	s.ev = s.tw.k.At(sim.Time(at), func() {
		s.ev = nil
		s.tw.put(s.tw.c.Fire(Time(s.tw.k.Now()), s.l, s.kind))
	})
}

func (s *simTimer) Disarm() {
	if s.ev != nil {
		s.tw.k.Cancel(s.ev)
		s.ev = nil
	}
}

func newTwin(seed uint64) *twin {
	tw := &twin{k: sim.New(), think: rng.New(seed, 7), sent: map[Link]int{}, got: map[Link]int{}}
	cfg := twinConfig
	cfg.Seed = seed
	tw.c = New(cfg, func(l Link, kind TimerKind) Timer { return &simTimer{tw: tw, l: l, kind: kind} })
	return tw
}

func (tw *twin) fail(err error) {
	if tw.err == nil {
		tw.err = err
	}
}

// send puts the next message of link src→dst on the wire.
func (tw *twin) send(src, dst ids.Client, kind byte) {
	l := Link{Src: src, Dst: dst}
	m := twinMsg{kind: kind, n: tw.sent[l]}
	tw.sent[l]++
	tw.put(tw.c.Send(Time(tw.k.Now()), src, dst, m), true, nil)
}

// put schedules the arrival of each copy of a transmission one link
// latency (plus jitter) later.
func (tw *twin) put(tx Tx, ok bool, err error) {
	if err != nil {
		tw.fail(err)
	}
	if !ok || tx.Copies() == 0 {
		return
	}
	at := tw.k.Now() + sim.Time(twinLatency+tx.Jitter)
	arrive := func() { tw.arrive(tx.Dst, tx.Pkt) }
	if !tx.Drop {
		tw.k.At(at, arrive)
	}
	if tx.Duplicate {
		tw.k.At(at, arrive)
	}
}

func (tw *twin) arrive(dst ids.Client, p Packet) {
	tw.buf = tw.c.Arrive(Time(tw.k.Now()), dst, p, tw.buf[:0])
	for _, d := range tw.buf {
		m := d.(twinMsg)
		l := Link{Src: p.Src, Dst: dst}
		if m.n != tw.got[l] {
			tw.fail(fmt.Errorf("link %v→%v delivered message %d, want %d", l.Src, l.Dst, m.n, tw.got[l]))
		}
		tw.got[l]++
		switch m.kind {
		case 'q':
			tw.send(ids.Server, p.Src, 'r')
		case 'r':
			tw.send(dst, (dst+1)%twinClients, 'h')
			tw.open--
			tw.k.After(sim.Time(5*ms+Time(tw.think.Float64()*float64(10*ms))), func() { tw.begin(dst) })
		}
	}
}

// begin starts client c's next exchange, until the run's end.
func (tw *twin) begin(c ids.Client) {
	if Time(tw.k.Now()) >= twinRun {
		return
	}
	tw.open++
	tw.send(c, ids.Server, 'q')
}

// run plays one seed to the end: traffic for two partition periods,
// then the kernel drains every arrival and timer.
func (tw *twin) run() {
	for c := ids.Client(0); c < twinClients; c++ {
		tw.begin(c)
	}
	tw.k.Run()
}

// check applies the twin's oracles to a drained run.
func (tw *twin) check() error {
	if tw.err != nil {
		return tw.err
	}
	if tw.open != 0 {
		return fmt.Errorf("%d exchanges never answered", tw.open)
	}
	if end := Time(tw.k.Now()); end < twinRun {
		return fmt.Errorf("run ended at %d µs, short of two partition periods", end/us)
	}
	for _, k := range tw.c.all {
		if n := tw.sent[k.key]; tw.got[k.key] != n {
			return fmt.Errorf("link %v→%v delivered %d of %d", k.key.Src, k.key.Dst, tw.got[k.key], n)
		}
		if len(k.unacked) != 0 || len(k.held) != 0 {
			return fmt.Errorf("link %v→%v drained with %d unacked and %d held", k.key.Src, k.key.Dst, len(k.unacked), len(k.held))
		}
	}
	st := tw.c.Stats()
	if st.Quarantined == 0 || st.PartitionDrops == 0 {
		return fmt.Errorf("no window bit: %d quarantined, %d partition drops", st.Quarantined, st.PartitionDrops)
	}
	return nil
}

// TestPartitionTwin replays TestChaosPartitionHealsBeyondRetransmitBudget
// (internal/live) on modelled time, where goroutine scheduling, timer
// delay and GC cannot eat the retransmit budget's slack: every link must
// deliver exactly once and in order, no link may be declared dead, every
// run must see at least one quarantine and one partition drop, and once
// the kernel drains every link's held and unacked buffers are empty.
func TestPartitionTwin(t *testing.T) {
	var sum Stats
	for seed := uint64(1); seed <= uint64(*twinSeeds); seed++ {
		tw := newTwin(seed)
		tw.run()
		if err := tw.check(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		st := tw.c.Stats()
		sum.Messages += st.Messages
		sum.Retransmits += st.Retransmits
		sum.Quarantined += st.Quarantined
		sum.MaxRTO = max(sum.MaxRTO, st.MaxRTO)
	}
	t.Logf("%d seeds: %d transmissions, %d retransmits, %d quarantined fires, longest timeout waited out %d µs",
		*twinSeeds, sum.Messages, sum.Retransmits, sum.Quarantined, sum.MaxRTO/us)
}
