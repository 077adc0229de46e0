package live

import (
	"sync"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/transport"
)

// payload labels one test message with its source and position.
type payload struct {
	src ids.Client
	n   int
}

// runLinkFIFO drives nsrc concurrent senders of count messages each into
// one destination mailbox through a network with the given chaos, and
// asserts the destination reads every sender's stream exactly once and in
// order, whatever the link did in between.
func runLinkFIFO(t *testing.T, chaos ChaosConfig, seed uint64, latency time.Duration, nsrc, count int) {
	t.Helper()
	dst := newMailbox(9, 8)
	net := newNetwork(latency, func(ids.Client) *mailbox { return dst }, coreConfig(Config{Seed: seed, Chaos: chaos}), nil)
	var senders sync.WaitGroup
	for s := 0; s < nsrc; s++ {
		s := s
		senders.Add(1)
		go func() {
			defer senders.Done()
			for i := 0; i < count; i++ {
				net.send(ids.Client(s), 9, payload{src: ids.Client(s), n: i})
			}
		}()
	}
	next := make(map[ids.Client]int)
	for got := 0; got < nsrc*count; got++ {
		select {
		case m := <-dst.ch:
			p := m.(payload)
			if p.n != next[p.src] {
				t.Fatalf("from %v: delivery %d arrived, want %d (reordered, lost or duplicated)", p.src, p.n, next[p.src])
			}
			next[p.src]++
		case <-time.After(10 * time.Second):
			t.Fatalf("delivery stalled after %d of %d messages", got, nsrc*count)
		}
	}
	senders.Wait()
	net.wg.Wait()
	select {
	case m := <-dst.ch:
		t.Fatalf("extra delivery %v after all %d expected (duplicate leaked through)", m, nsrc*count)
	default:
	}
}

func TestMailboxPerLinkFIFOConcurrentEnqueuers(t *testing.T) {
	runLinkFIFO(t, ChaosConfig{}, 0, 20*time.Microsecond, 4, 300)
}

func TestMailboxPerLinkFIFOZeroLatency(t *testing.T) {
	runLinkFIFO(t, ChaosConfig{}, 0, 0, 4, 300)
}

// TestMailboxPerLinkFIFOUnderChaos is the tentpole invariant at its
// sharpest: with the link adversarially reordering, duplicating and
// jittering deliveries, the resequencer at the mailbox edge must still
// hand the consumer exactly-once, in-order streams per sender.
func TestMailboxPerLinkFIFOUnderChaos(t *testing.T) {
	chaos := ChaosConfig{Reorder: 0.5, Duplicate: 0.4, Jitter: 100 * time.Microsecond}
	for seed := uint64(1); seed <= 3; seed++ {
		runLinkFIFO(t, chaos, seed, 20*time.Microsecond, 4, 300)
	}
}

// TestZeroLatencySendDoesNotDeadlock is the regression test for the
// inline-delivery bug: with Latency == 0 the network used to deliver
// straight into dst.ch from the sender's own goroutine, so two sites
// sending to each other with full (tiny) mailbox buffers deadlocked —
// exactly a server↔client send cycle under load. All sends must go
// through the enqueue/pump path so a sender never blocks.
func TestZeroLatencySendDoesNotDeadlock(t *testing.T) {
	a := newMailbox(0, 1)
	b := newMailbox(1, 1)
	boxes := map[ids.Client]*mailbox{0: a, 1: b}
	net := newNetwork(0, func(c ids.Client) *mailbox { return boxes[c] }, transport.Config{}, nil)
	const n = 64
	sent := make(chan struct{}, 2)
	go func() {
		for i := 0; i < n; i++ {
			net.send(0, 1, i)
		}
		sent <- struct{}{}
	}()
	go func() {
		for i := 0; i < n; i++ {
			net.send(1, 0, i)
		}
		sent <- struct{}{}
	}()
	deadline := time.After(5 * time.Second)
	for i := 0; i < 2; i++ {
		select {
		case <-sent:
		case <-deadline:
			t.Fatal("zero-latency send cycle deadlocked on full mailbox buffers")
		}
	}
	// Drain both mailboxes so every pump delivery completes.
	for i := 0; i < n; i++ {
		<-a.ch
		<-b.ch
	}
	net.wg.Wait()
}

// chaosCore returns a transport core applying chaos under seed, as a
// cluster would build it.
func chaosCore(chaos ChaosConfig, seed uint64) *transport.Core {
	c, _ := newVirtualCore(coreConfig(Config{Seed: seed, Chaos: chaos}))
	return c
}

// roll sends one message on link l at now and returns the faults the
// chaos policy applied to it.
func roll(c *transport.Core, l transport.Link, now transport.Time) transport.Directive {
	return c.Send(now, l.Src, l.Dst, nil).Directive
}

// TestChaosPolicyDeterministic pins the seeded policy: the same seed must
// yield the same fault decisions on every link, so a failing chaos run
// can be replayed.
func TestChaosPolicyDeterministic(t *testing.T) {
	chaos := ChaosConfig{Reorder: 0.3, Duplicate: 0.2, Jitter: time.Millisecond, Drop: 0.3}
	a := chaosCore(chaos, 7)
	b := chaosCore(chaos, 7)
	other := chaosCore(chaos, 8)
	k := transport.Link{Src: ids.Server, Dst: 3}
	same, diff := 0, 0
	for i := 0; i < 200; i++ {
		da, db := roll(a, k, 0), roll(b, k, 0)
		if da != db {
			t.Fatalf("roll %d diverged for identical seeds: %+v vs %+v", i, da, db)
		}
		if da == roll(other, k, 0) {
			same++
		} else {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds never diverged; policy ignores the seed")
	}
}

// TestChaosDropIndependentStream pins the stream discipline that makes
// Drop a pure extension: enabling it must not shift the reorder,
// duplicate or jitter decisions of an otherwise identical seeded run,
// because each link draws drop from its own separately split stream.
func TestChaosDropIndependentStream(t *testing.T) {
	base := ChaosConfig{Reorder: 0.3, Duplicate: 0.2, Jitter: time.Millisecond}
	withDrop := base
	withDrop.Drop = 0.5
	a := chaosCore(base, 7)
	b := chaosCore(withDrop, 7)
	k := transport.Link{Src: ids.Server, Dst: 3}
	drops := 0
	for i := 0; i < 500; i++ {
		da, db := roll(a, k, 0), roll(b, k, 0)
		if da.Displace != db.Displace || da.Duplicate != db.Duplicate || da.Jitter != db.Jitter {
			t.Fatalf("roll %d: enabling Drop shifted other fault decisions: %+v vs %+v", i, da, db)
		}
		if da.Drop {
			t.Fatalf("roll %d: policy without Drop rolled a drop", i)
		}
		if db.Drop {
			drops++
		}
	}
	if drops == 0 {
		t.Fatal("Drop=0.5 never dropped in 500 rolls")
	}
}

func TestChaosConfigValidate(t *testing.T) {
	bad := []ChaosConfig{
		{Reorder: -0.1},
		{Reorder: 1.1},
		{Duplicate: -0.1},
		{Duplicate: 2},
		{Jitter: -time.Second},
		{Drop: -0.1},
		{Drop: 1.5},
		{Partition: PartitionConfig{Prob: -0.1}},
		{Partition: PartitionConfig{Prob: 1.1}},
		{Partition: PartitionConfig{Prob: 0.5, Down: -time.Millisecond}},
		{Partition: PartitionConfig{Prob: 0.5, Down: 0, Every: -time.Second}},
		// Every must exceed Down: a window that never closes can't heal.
		{Partition: PartitionConfig{Prob: 0.5, Down: 10 * time.Millisecond, Every: 5 * time.Millisecond}},
		{Partition: PartitionConfig{Prob: 0.5, Down: 10 * time.Millisecond, Every: 10 * time.Millisecond}},
	}
	for i, c := range bad {
		if c.validate() == nil {
			t.Errorf("case %d: invalid chaos config %+v accepted", i, c)
		}
	}
	ok := ChaosConfig{Reorder: 1, Duplicate: 1, Jitter: time.Second, Drop: 1,
		Partition: PartitionConfig{Prob: 1, Down: time.Millisecond, Every: time.Second}}
	if err := ok.validate(); err != nil {
		t.Errorf("valid chaos config rejected: %v", err)
	}
	// Zero Every is legal: withDefaults resolves it to 10×Down.
	zeroEvery := PartitionConfig{Prob: 1, Down: 3 * time.Millisecond}
	if err := (ChaosConfig{Partition: zeroEvery}).validate(); err != nil {
		t.Errorf("partition config with default Every rejected: %v", err)
	}
	if got := zeroEvery.withDefaults().Every; got != 30*time.Millisecond {
		t.Errorf("withDefaults Every = %v, want 10×Down = 30ms", got)
	}
	if (ChaosConfig{}).enabled() {
		t.Error("zero chaos config reports enabled")
	}
	if !ok.enabled() {
		t.Error("non-zero chaos config reports disabled")
	}
	if !(ChaosConfig{Drop: 0.1}).enabled() {
		t.Error("drop-only chaos config reports disabled")
	}
	if !(ChaosConfig{Partition: PartitionConfig{Prob: 0.1, Down: time.Millisecond}}).enabled() {
		t.Error("partition-only chaos config reports disabled")
	}
	if (ChaosConfig{Partition: PartitionConfig{Prob: 0.1}}).enabled() {
		t.Error("partition config with zero Down reports enabled")
	}
}

// TestChaosPartitionIndependentStream pins that enabling Partition does
// not shift the reorder/duplicate/jitter/drop decisions of an otherwise
// identical seeded run: partition placement draws from its own split.
func TestChaosPartitionIndependentStream(t *testing.T) {
	base := ChaosConfig{Reorder: 0.3, Duplicate: 0.2, Jitter: time.Millisecond, Drop: 0.3}
	withPart := base
	withPart.Partition = PartitionConfig{Prob: 1, Down: time.Hour, Every: 2 * time.Hour}
	a := chaosCore(base, 7)
	b := chaosCore(withPart, 7)
	k := transport.Link{Src: ids.Server, Dst: 3}
	parts := 0
	for i := 0; i < 500; i++ {
		// Sweep now across more than one full window cycle so the rolls
		// sample both in-window and up-time instants whatever the phase.
		now := transport.Time(time.Duration(i) * 15 * time.Second)
		da, db := roll(a, k, now), roll(b, k, now)
		if da.Displace != db.Displace || da.Duplicate != db.Duplicate ||
			da.Jitter != db.Jitter || da.Drop != db.Drop {
			t.Fatalf("roll %d: enabling Partition shifted other fault decisions: %+v vs %+v", i, da, db)
		}
		if da.Partitioned {
			t.Fatalf("roll %d: policy without Partition rolled a window", i)
		}
		if db.Partitioned {
			parts++
		}
	}
	if parts == 0 {
		t.Fatal("Prob=1 hour-long window never marked a transmission partitioned")
	}
}

// TestChaosLinkStreamsOrderIndependent pins the per-link stream
// derivation: a link's fault sequence must depend only on the seed and
// the link's endpoints, never on which links happened to transmit first.
// Two cores with the same seed but opposite first-touch order must still
// agree on every link's directives, partition windows included.
func TestChaosLinkStreamsOrderIndependent(t *testing.T) {
	chaos := ChaosConfig{Reorder: 0.4, Duplicate: 0.3, Jitter: time.Millisecond, Drop: 0.2,
		Partition: PartitionConfig{Prob: 0.5, Down: time.Hour, Every: 2 * time.Hour}}
	a := chaosCore(chaos, 7)
	b := chaosCore(chaos, 7)
	ka := transport.Link{Src: ids.Server, Dst: 1}
	kb := transport.Link{Src: 2, Dst: ids.Server}
	// Touch the links in opposite orders, interleaving draws.
	var seqA, seqB []transport.Directive
	for i := 0; i < 100; i++ {
		now := transport.Time(time.Duration(i) * 7 * time.Minute)
		seqA = append(seqA, roll(a, ka, now))
		roll(a, kb, now)
	}
	for i := 0; i < 100; i++ {
		now := transport.Time(time.Duration(i) * 7 * time.Minute)
		roll(b, kb, now)
		seqB = append(seqB, roll(b, ka, now))
	}
	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatalf("roll %d on %v diverged with different link first-touch order: %+v vs %+v",
				i, ka, seqA[i], seqB[i])
		}
	}
}

func TestARQConfigValidate(t *testing.T) {
	bad := []ARQConfig{
		{RTO: -time.Millisecond},
		{MaxRTO: -time.Millisecond},
		{RTO: 10 * time.Millisecond, MaxRTO: 5 * time.Millisecond},
		{RetransmitCap: -1},
		{AckDelay: -time.Microsecond},
	}
	for i, c := range bad {
		if c.validate() == nil {
			t.Errorf("case %d: invalid ARQ config %+v accepted", i, c)
		}
	}
	if err := (ARQConfig{}).validate(); err != nil {
		t.Errorf("zero ARQ config rejected: %v", err)
	}
	def := (ARQConfig{}).withDefaults()
	if def.RTO <= 0 || def.MaxRTO < def.RTO || def.RetransmitCap <= 0 || def.AckDelay <= 0 {
		t.Errorf("defaults not self-consistent: %+v", def)
	}
}
