package live

import (
	"testing"

	"repro/internal/ids"
	"repro/internal/transport"
)

// vclock is modelled time for driving the transport core by hand: it
// records the deadline of every timer the core arms, so a test fires
// each one at its exact instant instead of waiting on the wall clock.
type vclock struct {
	now transport.Time
	due map[vtimer]transport.Time // armed deadlines; absent means disarmed
}

// vtimer is one link's timer of one kind on a vclock.
type vtimer struct {
	l    transport.Link
	kind transport.TimerKind
}

type vtimerHandle struct {
	c *vclock
	k vtimer
}

func (h vtimerHandle) Arm(at transport.Time) { h.c.due[h.k] = at }
func (h vtimerHandle) Disarm()               { delete(h.c.due, h.k) }

// newVirtualCore returns a transport core on a fresh vclock at time 0.
func newVirtualCore(cfg transport.Config) (*transport.Core, *vclock) {
	v := &vclock{due: make(map[vtimer]transport.Time)}
	c := transport.New(cfg, func(l transport.Link, kind transport.TimerKind) transport.Timer {
		return vtimerHandle{c: v, k: vtimer{l: l, kind: kind}}
	})
	return c, v
}

// armed reports link l's deadline for timer kind, if armed.
func (v *vclock) armed(l transport.Link, kind transport.TimerKind) (transport.Time, bool) {
	at, ok := v.due[vtimer{l: l, kind: kind}]
	return at, ok
}

// fire advances the clock to the timer's deadline (when armed and still
// ahead) and fires it there; a fired timer stays disarmed unless the core
// re-arms it.
func (v *vclock) fire(c *transport.Core, l transport.Link, kind transport.TimerKind) (transport.Tx, bool, error) {
	if at, ok := v.armed(l, kind); ok && at > v.now {
		v.now = at
	}
	delete(v.due, vtimer{l: l, kind: kind})
	return c.Fire(v.now, l, kind)
}

// arriveSeq feeds a packet carrying its own seq as payload from src to
// site 9 and returns what it made deliverable.
func arriveSeq(c *transport.Core, src ids.Client, seq uint64) []any {
	return c.Arrive(0, 9, transport.Packet{Src: src, Seq: seq, Msg: seq}, nil)
}

// heldFrom is how many arrivals site 9 holds past a gap from src.
func heldFrom(c *transport.Core, src ids.Client) int {
	return c.State(transport.Link{Src: src, Dst: 9}).Held
}

// wantOut asserts an arrival made exactly the given payload seqs
// deliverable, in order.
func wantOut(t *testing.T, got []any, want ...uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("arrival delivered %d messages %v, want %d", len(got), got, len(want))
	}
	for i, m := range got {
		if m.(uint64) != want[i] {
			t.Fatalf("delivery[%d] = %v, want %d", i, m, want[i])
		}
	}
}

func TestResequencerInOrder(t *testing.T) {
	c, _ := newVirtualCore(transport.Config{})
	for seq := uint64(1); seq <= 5; seq++ {
		wantOut(t, arriveSeq(c, 0, seq), seq)
	}
}

func TestResequencerGapBuffering(t *testing.T) {
	c, _ := newVirtualCore(transport.Config{})
	// 2 and 3 arrive ahead of 1: buffered, then released in order.
	wantOut(t, arriveSeq(c, 0, 2))
	wantOut(t, arriveSeq(c, 0, 3))
	wantOut(t, arriveSeq(c, 0, 1), 1, 2, 3)
	// The gap buffer is empty again; 4 flows straight through.
	wantOut(t, arriveSeq(c, 0, 4), 4)
}

func TestResequencerDupDrop(t *testing.T) {
	c, _ := newVirtualCore(transport.Config{})
	wantOut(t, arriveSeq(c, 0, 1), 1)
	// Duplicate of a delivered message: dropped.
	wantOut(t, arriveSeq(c, 0, 1))
	// Duplicate of a buffered (gap) message: dropped, then delivered once.
	wantOut(t, arriveSeq(c, 0, 3))
	wantOut(t, arriveSeq(c, 0, 3))
	wantOut(t, arriveSeq(c, 0, 2), 2, 3)
	wantOut(t, arriveSeq(c, 0, 2))
	wantOut(t, arriveSeq(c, 0, 3))
}

func TestResequencerPerSourceStreams(t *testing.T) {
	c, _ := newVirtualCore(transport.Config{})
	// Sources sequence independently: seq 1 from each is deliverable, and
	// a gap on one source does not block the other.
	wantOut(t, arriveSeq(c, 0, 2))
	wantOut(t, arriveSeq(c, 1, 1), 1)
	wantOut(t, arriveSeq(c, ids.Server, 1), 1)
	wantOut(t, arriveSeq(c, 0, 1), 1, 2)
}

// TestResequencerHeldMapDrained: once a gap drains, its link holds
// nothing; a partially drained gap keeps exactly what is still past it.
func TestResequencerHeldMapDrained(t *testing.T) {
	c, _ := newVirtualCore(transport.Config{})
	// Open gaps on two sources, then drain both fully.
	wantOut(t, arriveSeq(c, 0, 3))
	wantOut(t, arriveSeq(c, 0, 2))
	wantOut(t, arriveSeq(c, 1, 2))
	wantOut(t, arriveSeq(c, 0, 1), 1, 2, 3)
	if h0, h1 := heldFrom(c, 0), heldFrom(c, 1); h0 != 0 || h1 != 1 {
		t.Fatalf("after source 0 drained: held %d and %d, want 0 and 1 (source 1 still gapped)", h0, h1)
	}
	wantOut(t, arriveSeq(c, 1, 1), 1, 2)
	if h0, h1 := heldFrom(c, 0), heldFrom(c, 1); h0+h1 != 0 {
		t.Fatalf("after full drain: held %d and %d, want none", h0, h1)
	}
	// A partially drained gap keeps its entries.
	wantOut(t, arriveSeq(c, 0, 5))
	wantOut(t, arriveSeq(c, 0, 7))
	wantOut(t, arriveSeq(c, 0, 4), 4, 5)
	if h := heldFrom(c, 0); h != 1 {
		t.Fatalf("partially drained gap holds %d, want 1 (seq 7)", h)
	}
	wantOut(t, arriveSeq(c, 0, 6), 6, 7)
	if h := heldFrom(c, 0); h != 0 {
		t.Fatalf("after second drain: held %d, want 0", h)
	}
}

func TestResequencerDelivered(t *testing.T) {
	c, _ := newVirtualCore(transport.Config{})
	delivered := func() uint64 { return c.State(transport.Link{Src: 0, Dst: 9}).Delivered }
	if got := delivered(); got != 0 {
		t.Fatalf("delivered of unseen source = %d, want 0", got)
	}
	arriveSeq(c, 0, 1)
	arriveSeq(c, 0, 2)
	arriveSeq(c, 0, 4) // gapped: not yet delivered
	if got := delivered(); got != 2 {
		t.Fatalf("delivered = %d, want 2 (seq 4 still gapped)", got)
	}
	arriveSeq(c, 0, 3)
	if got := delivered(); got != 4 {
		t.Fatalf("delivered = %d, want 4 after the gap closed", got)
	}
}

// TestResequencerUnstampedPanics: a packet with neither a sequence
// number nor an acknowledgement is a bug, never a message.
func TestResequencerUnstampedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("seq 0 without an ack (unstamped) must panic")
		}
	}()
	c, _ := newVirtualCore(transport.Config{})
	arriveSeq(c, 0, 0)
}

func TestResequencerGapOverflowPanics(t *testing.T) {
	c, _ := newVirtualCore(transport.Config{})
	// Hold the gap open at seq 1 and flood arrivals past it.
	for seq := uint64(2); seq < transport.MaxGap+2; seq++ {
		arriveSeq(c, 0, seq)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unbounded gap growth must panic, not hang the run")
		}
	}()
	arriveSeq(c, 0, transport.MaxGap+2)
}
