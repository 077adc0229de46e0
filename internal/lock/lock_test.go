package lock

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/ids"
)

func TestSharedLocksCoexist(t *testing.T) {
	m := NewManager()
	if !m.Acquire(1, 10, Shared) {
		t.Fatal("first shared not granted")
	}
	if !m.Acquire(2, 10, Shared) {
		t.Fatal("second shared not granted")
	}
	if got := len(m.HoldersOf(10)); got != 2 {
		t.Fatalf("holders = %d", got)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestExclusiveBlocksAll(t *testing.T) {
	m := NewManager()
	if !m.Acquire(1, 10, Exclusive) {
		t.Fatal("exclusive not granted on free item")
	}
	if m.Acquire(2, 10, Shared) {
		t.Fatal("shared granted under exclusive")
	}
	if m.Acquire(3, 10, Exclusive) {
		t.Fatal("exclusive granted under exclusive")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSharedBlocksExclusive(t *testing.T) {
	m := NewManager()
	m.Acquire(1, 10, Shared)
	if m.Acquire(2, 10, Exclusive) {
		t.Fatal("exclusive granted under shared")
	}
}

func TestReleaseGrantsFIFO(t *testing.T) {
	m := NewManager()
	m.Acquire(1, 10, Exclusive)
	m.Acquire(2, 10, Exclusive)
	m.Acquire(3, 10, Shared)
	grants := m.Release(1)
	if len(grants) != 1 || grants[0].Txn != 2 || grants[0].Mode != Exclusive {
		t.Fatalf("grants after release = %v", grants)
	}
	grants = m.Release(2)
	if len(grants) != 1 || grants[0].Txn != 3 {
		t.Fatalf("grants after second release = %v", grants)
	}
}

func TestGroupGrantOfReaders(t *testing.T) {
	m := NewManager()
	m.Acquire(1, 10, Exclusive)
	m.Acquire(2, 10, Shared)
	m.Acquire(3, 10, Shared)
	m.Acquire(4, 10, Exclusive)
	m.Acquire(5, 10, Shared)
	grants := m.Release(1)
	// Readers 2 and 3 go together; writer 4 blocks; late reader 5 must not
	// jump the queue past the writer.
	if len(grants) != 2 {
		t.Fatalf("grants = %v", grants)
	}
	for i, want := range []ids.Txn{2, 3} {
		if grants[i].Txn != want || grants[i].Mode != Shared {
			t.Fatalf("grant %d = %v", i, grants[i])
		}
	}
	if m.QueueLen(10) != 2 {
		t.Fatalf("queue len = %d", m.QueueLen(10))
	}
}

func TestNoWriterStarvation(t *testing.T) {
	m := NewManager()
	m.Acquire(1, 10, Shared)
	m.Acquire(2, 10, Exclusive) // queued
	// A new reader must queue behind the writer even though it is
	// compatible with the current holder.
	if m.Acquire(3, 10, Shared) {
		t.Fatal("reader jumped a queued writer")
	}
	grants := m.Release(1)
	if len(grants) != 1 || grants[0].Txn != 2 {
		t.Fatalf("grants = %v", grants)
	}
	grants = m.Release(2)
	if len(grants) != 1 || grants[0].Txn != 3 {
		t.Fatalf("grants = %v", grants)
	}
}

func TestReacquireHeldLock(t *testing.T) {
	m := NewManager()
	m.Acquire(1, 10, Exclusive)
	if !m.Acquire(1, 10, Shared) {
		t.Fatal("shared under own exclusive not granted")
	}
	if !m.Acquire(1, 10, Exclusive) {
		t.Fatal("re-acquire of own exclusive not granted")
	}
	m.Acquire(2, 20, Shared)
	if !m.Acquire(2, 20, Shared) {
		t.Fatal("re-acquire of own shared not granted")
	}
}

func TestUpgradeSoleHolder(t *testing.T) {
	m := NewManager()
	m.Acquire(1, 10, Shared)
	if !m.Acquire(1, 10, Exclusive) {
		t.Fatal("upgrade as sole holder not granted")
	}
	if got := m.Held(1); len(got) != 1 || got[0] != (Held{10, Exclusive}) {
		t.Fatalf("held after upgrade = %v", got)
	}
	if m.Acquire(2, 10, Shared) {
		t.Fatal("shared granted under upgraded exclusive")
	}
}

func TestUpgradeWithOtherReadersWaits(t *testing.T) {
	m := NewManager()
	m.Acquire(1, 10, Shared)
	m.Acquire(2, 10, Shared)
	if m.Acquire(1, 10, Exclusive) {
		t.Fatal("upgrade granted with another reader present")
	}
	grants := m.Release(2)
	if len(grants) != 1 || grants[0].Txn != 1 || grants[0].Mode != Exclusive {
		t.Fatalf("upgrade grant = %v", grants)
	}
	if got := m.Held(1); len(got) != 1 || got[0] != (Held{10, Exclusive}) {
		t.Fatalf("held = %v", got)
	}
}

func TestDoubleWaitPanics(t *testing.T) {
	m := NewManager()
	m.Acquire(1, 10, Exclusive)
	m.Acquire(2, 10, Exclusive)
	defer func() {
		if recover() == nil {
			t.Fatal("second concurrent wait did not panic")
		}
	}()
	m.Acquire(2, 20, Exclusive)
}

func TestReleaseWaiter(t *testing.T) {
	m := NewManager()
	m.Acquire(1, 10, Exclusive)
	m.Acquire(2, 10, Exclusive)
	m.Acquire(3, 10, Shared)
	grants := m.Release(2) // aborting the queued writer should not grant 3 yet
	if len(grants) != 0 {
		t.Fatalf("grants = %v (holder 1 still present)", grants)
	}
	grants = m.Release(1)
	if len(grants) != 1 || grants[0].Txn != 3 {
		t.Fatalf("grants = %v", grants)
	}
}

func TestReleaseHolder(t *testing.T) {
	m := NewManager()
	m.Acquire(1, 10, Exclusive)
	m.Acquire(2, 10, Exclusive)
	grants := m.Release(1)
	if len(grants) != 1 || grants[0].Txn != 2 {
		t.Fatalf("grants = %v", grants)
	}
	if _, ok := m.Waiting(2); ok {
		t.Fatal("granted txn still marked waiting")
	}
}

func TestWaitsForEdges(t *testing.T) {
	m := NewManager()
	m.Acquire(1, 10, Shared)
	m.Acquire(2, 10, Shared)
	m.Acquire(3, 10, Exclusive) // waits for 1 and 2
	m.Acquire(4, 10, Shared)    // waits for 3 (conflicting queued ahead)
	edges3 := m.WaitsFor(3)
	if len(edges3) != 2 {
		t.Fatalf("WaitsFor(3) = %v", edges3)
	}
	edges4 := m.WaitsFor(4)
	if len(edges4) != 1 || edges4[0] != 3 {
		t.Fatalf("WaitsFor(4) = %v", edges4)
	}
	if got := m.WaitsFor(1); got != nil {
		t.Fatalf("WaitsFor on non-waiter = %v", got)
	}
}

func TestWaitsForUpgradeIgnoresSelf(t *testing.T) {
	m := NewManager()
	m.Acquire(1, 10, Shared)
	m.Acquire(2, 10, Shared)
	m.Acquire(1, 10, Exclusive) // queued upgrade
	edges := m.WaitsFor(1)
	if len(edges) != 1 || edges[0] != 2 {
		t.Fatalf("upgrade WaitsFor = %v", edges)
	}
}

func TestHeldAscending(t *testing.T) {
	m := NewManager()
	for _, item := range []ids.Item{30, 10, 20} {
		m.Acquire(1, item, Shared)
	}
	m.Acquire(1, 20, Exclusive) // sole holder: upgrades in place
	want := []Held{{10, Shared}, {20, Exclusive}, {30, Shared}}
	if got := m.Held(1); !slices.Equal(got, want) {
		t.Fatalf("Held(1) = %v, want %v", got, want)
	}
	if got := m.HeldCount(1); got != 3 {
		t.Fatalf("HeldCount(1) = %d", got)
	}
	m.Release(1)
	if got := m.Held(1); len(got) != 0 {
		t.Fatalf("Held after release = %v", got)
	}
}

func TestCompatibleMatrix(t *testing.T) {
	if !Compatible(Shared, Shared) {
		t.Fatal("S-S must be compatible")
	}
	if Compatible(Shared, Exclusive) || Compatible(Exclusive, Shared) || Compatible(Exclusive, Exclusive) {
		t.Fatal("X conflicts with everything")
	}
	if Shared.String() != "S" || Exclusive.String() != "X" {
		t.Fatal("mode strings")
	}
}

func TestItemStateGarbageCollected(t *testing.T) {
	m := NewManager()
	m.Acquire(1, 10, Exclusive)
	m.Release(1)
	if len(m.items) != 0 {
		t.Fatalf("item state leaked: %d entries", len(m.items))
	}
}

// Property: after any sequence of acquire/release/cancel operations the
// manager's invariants hold and no transaction both holds and waits in a
// contradictory state.
func TestRandomOpsInvariant(t *testing.T) {
	type op struct {
		Kind uint8
		Txn  uint8
		Item uint8
		Mode uint8
	}
	f := func(ops []op) bool {
		m := NewManager()
		blocked := map[ids.Txn]bool{}
		for _, o := range ops {
			txn := ids.Txn(o.Txn%8) + 1
			item := ids.Item(o.Item % 4)
			mode := Shared
			if o.Mode%2 == 1 {
				mode = Exclusive
			}
			switch o.Kind % 3 {
			case 0:
				if blocked[txn] {
					continue // sequential client: cannot issue while waiting
				}
				if !m.Acquire(txn, item, mode) {
					blocked[txn] = true
				}
			case 1:
				for _, g := range m.Release(txn) {
					delete(blocked, g.Txn)
				}
				delete(blocked, txn)
			case 2:
				for _, g := range m.CancelWait(txn) {
					delete(blocked, g.Txn)
				}
				delete(blocked, txn)
			}
			if err := m.Validate(); err != nil {
				t.Logf("invariant violated: %v", err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCancelWaitRemovesOnlyQueuedRequest(t *testing.T) {
	m := NewManager()
	m.Acquire(1, 10, Exclusive)
	m.Acquire(1, 20, Shared) // held on another item
	m.Acquire(2, 10, Exclusive)
	m.Acquire(3, 10, Shared)
	grants := m.CancelWait(2)
	if len(grants) != 0 {
		t.Fatalf("grants = %v with holder 1 still present", grants)
	}
	if _, waiting := m.Waiting(2); waiting {
		t.Fatal("canceled request still queued")
	}
	// Held locks must be untouched until the explicit release.
	m.Acquire(2, 30, Shared) // txn 2 can request again (fresh instance semantics)
	grants = m.Release(1)
	if len(grants) != 1 || grants[0].Txn != 3 {
		t.Fatalf("grants after release = %v", grants)
	}
}

func TestCancelWaitNoRequest(t *testing.T) {
	m := NewManager()
	m.Acquire(1, 10, Exclusive)
	if got := m.CancelWait(1); got != nil {
		t.Fatalf("CancelWait on non-waiter = %v", got)
	}
}

func TestCancelWaitUnblocksQueue(t *testing.T) {
	m := NewManager()
	m.Acquire(1, 10, Shared)
	m.Acquire(2, 10, Exclusive) // queued writer
	m.Acquire(3, 10, Shared)    // queued behind writer
	grants := m.CancelWait(2)
	if len(grants) != 1 || grants[0].Txn != 3 || grants[0].Mode != Shared {
		t.Fatalf("canceling the queued writer should promote the reader: %v", grants)
	}
}

// TestReleaseWaiterUnblocksQueue withdraws a queued writer by releasing
// it: the compatible reader queued behind it must be granted at once.
func TestReleaseWaiterUnblocksQueue(t *testing.T) {
	m := NewManager()
	m.Acquire(1, 10, Shared)
	m.Acquire(2, 10, Exclusive) // queued writer
	m.Acquire(3, 10, Shared)    // queued behind writer
	grants := m.Release(2)
	if len(grants) != 1 || grants[0].Txn != 3 || grants[0].Mode != Shared {
		t.Fatalf("releasing the queued writer should promote the reader: %v", grants)
	}
}
