package lock

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ids"
)

// diffTxns and diffItems bound the differential harness: small enough
// that requests collide, queue and upgrade.
const (
	diffTxns  = 8
	diffItems = 5
)

// lockPair drives the product and the reference model with the same
// operations and fails on the first observable difference.
type lockPair struct {
	t *testing.T
	m *Manager
	r *model
}

func newLockPair(t *testing.T) *lockPair { return &lockPair{t: t, m: NewManager(), r: newModel()} }

// step applies one operation, decoded from three bytes, to both tables.
// The model's Drop is the reference for the product's Release.
func (p *lockPair) step(op, x, y byte) {
	p.t.Helper()
	txn, item := ids.Txn(x%diffTxns+1), ids.Item(y%diffItems)
	mode := Mode(op / 8 % 2)
	switch op % 4 {
	case 0, 1: // twice as likely as the others, so tables fill
		if _, waiting := p.r.Waiting(txn); waiting {
			return // a sequential client cannot request while it waits
		}
		if got, want := p.m.Acquire(txn, item, mode), p.r.Acquire(txn, item, mode); got != want {
			p.t.Fatalf("Acquire(%v, %v, %v) = %v, model %v", txn, item, mode, got, want)
		}
	case 2:
		if got, want := p.m.Release(txn), p.r.Drop(txn); !slices.Equal(got, want) {
			p.t.Fatalf("Release(%v) = %v, model %v", txn, got, want)
		}
	case 3:
		if got, want := p.m.CancelWait(txn), p.r.CancelWait(txn); !slices.Equal(got, want) {
			p.t.Fatalf("CancelWait(%v) = %v, model %v", txn, got, want)
		}
	}
	p.compare()
}

// compare checks every accessor of the two tables and the product's own
// invariants.
func (p *lockPair) compare() {
	p.t.Helper()
	for txn := ids.Txn(1); txn <= diffTxns; txn++ {
		if got, want := p.m.WaitsFor(txn), p.r.WaitsFor(txn); !slices.Equal(got, want) {
			p.t.Fatalf("WaitsFor(%v) = %v, model %v", txn, got, want)
		}
		gi, gok := p.m.Waiting(txn)
		wi, wok := p.r.Waiting(txn)
		if gok != wok || (gok && gi != wi) {
			p.t.Fatalf("Waiting(%v) = %v %v, model %v %v", txn, gi, gok, wi, wok)
		}
		if got, want := p.m.HeldCount(txn), p.r.HeldCount(txn); got != want {
			p.t.Fatalf("HeldCount(%v) = %d, model %d", txn, got, want)
		}
		heldBy := p.r.HeldBy(txn)
		var want []Held
		for _, item := range slices.Sorted(maps.Keys(heldBy)) {
			want = append(want, Held{item, heldBy[item]})
		}
		if got := p.m.Held(txn); !slices.Equal(got, want) {
			p.t.Fatalf("Held(%v) = %v, model %v", txn, got, want)
		}
	}
	for item := ids.Item(0); item < diffItems; item++ {
		if got, want := p.m.HoldersOf(item), p.r.HoldersOf(item); !slices.Equal(got, want) {
			p.t.Fatalf("HoldersOf(%v) = %v, model %v", item, got, want)
		}
		if got, want := p.m.QueueLen(item), p.r.QueueLen(item); got != want {
			p.t.Fatalf("QueueLen(%v) = %d, model %d", item, got, want)
		}
	}
	if len(p.m.items) != len(p.r.items) {
		p.t.Fatalf("%d item states, model %d", len(p.m.items), len(p.r.items))
	}
	if err := p.r.Validate(); err != nil {
		p.t.Fatalf("model: %v", err)
	}
	if err := p.m.Validate(); err != nil {
		p.t.Fatal(err)
	}
	checkRecycling(p.t, p.m)
}

// checkRecycling verifies what the free lists promise: an emptied item
// state leaves the table, and recycled states and records carry nothing
// into their next life.
func checkRecycling(t *testing.T, m *Manager) {
	t.Helper()
	for item, s := range m.items {
		if len(s.holders) == 0 && len(s.queue) == 0 {
			t.Fatalf("empty state of %v not recycled", item)
		}
	}
	for _, s := range m.freeItems {
		if len(s.holders) != 0 || len(s.queue) != 0 {
			t.Fatalf("recycled item state keeps %d holders, %d queued", len(s.holders), len(s.queue))
		}
	}
	for _, r := range m.freeTxns {
		if len(r.held) != 0 || r.waiting {
			t.Fatalf("recycled record (last %v) keeps %d held, waiting %v", r.id, len(r.held), r.waiting)
		}
	}
}

// run interprets data as a sequence of three-byte operations.
func (p *lockPair) run(data []byte) {
	p.t.Helper()
	for i := 0; i+2 < len(data); i += 3 {
		p.step(data[i], data[i+1], data[i+2])
	}
}

// TestLockMatchesModel drives product and model with the same random
// operation sequences.
func TestLockMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for round := 0; round < 300; round++ {
		data := make([]byte, 3*(20+rng.Intn(200)))
		rng.Read(data)
		newLockPair(t).run(data)
	}
}

// FuzzLockModel lets the fuzzer choose the operation sequence.
func FuzzLockModel(f *testing.F) {
	f.Add([]byte{0, 0, 0, 8, 1, 0, 0, 2, 0, 2, 1, 0})          // S holder, X waiter, S waiter; release the X waiter
	f.Add([]byte{0, 0, 0, 0, 1, 0, 8, 0, 0, 2, 1, 0})          // queued upgrade, then the other reader leaves
	f.Add([]byte{8, 0, 0, 8, 1, 0, 8, 2, 0, 3, 1, 0, 2, 0, 0}) // writer chain, cancel mid-queue, release the head
	f.Fuzz(func(t *testing.T, data []byte) { newLockPair(t).run(data) })
}

// TestSteadyStateAllocs pins the representation's point: once the free
// lists and buffers have grown, acquiring, queueing, granting and
// releasing allocate nothing.
func TestSteadyStateAllocs(t *testing.T) {
	m := NewManager()
	var edges []ids.Txn
	cycle := func() {
		m.Acquire(1, 10, Shared)
		m.Acquire(1, 20, Exclusive)
		m.Acquire(2, 10, Exclusive) // queues behind T1
		m.Acquire(3, 10, Shared)    // queues behind T2
		edges = m.AppendWaitsFor(edges[:0], 2)
		m.Release(1) // grants T2
		m.Release(2) // grants T3
		m.Release(3)
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("steady-state cycle allocates %v times, want 0", n)
	}
}
