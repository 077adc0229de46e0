package protocol

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ids"
)

// lsTxns and lsItems bound the differential harness: small enough that
// requests collide, block, close cycles and wound.
const (
	lsTxns  = 8
	lsItems = 4
)

// serverPair drives the product core and the reference model with the
// same events and fails on the first observable difference.
type serverPair struct {
	t *testing.T
	s *LockServer
	m *modelServer
	// kept holds every action list the product returned, with a copy: the
	// product promises never to write a returned list again.
	kept [][2][]LockAction
}

func newServerPair(t *testing.T, policy VictimPolicy, deadlock DeadlockPolicy) *serverPair {
	return &serverPair{t: t, s: NewLockServer(policy, deadlock), m: newModelServer(policy, deadlock)}
}

// acts compares one event's action lists and keeps the product's.
func (p *serverPair) acts(event string, got, want []LockAction) {
	p.t.Helper()
	if !slices.Equal(got, want) {
		p.t.Fatalf("%s = %+v, model %+v", event, got, want)
	}
	p.kept = append(p.kept, [2][]LockAction{got, slices.Clone(got)})
}

// step applies one event, decoded from three bytes, to both cores.
func (p *serverPair) step(op, x, y byte) {
	p.t.Helper()
	txn := ids.Txn(x%lsTxns + 1)
	switch op % 8 {
	case 0, 1, 2: // requests dominate, so tables fill and cycles close
		if _, waiting := p.m.locks.Waiting(txn); waiting {
			return // a sequential client cannot request while it waits
		}
		q := LockRequest{Txn: txn, Client: ids.Client(x % 3), Item: ids.Item(y % lsItems), Write: op/8%2 == 1}
		if op/16%2 == 1 {
			q.Ts = ids.Txn(y/16%lsTxns + 1) // a restart's older (or younger) first incarnation
		}
		p.acts(fmt.Sprintf("Request(%+v)", q), p.s.Request(q), p.m.Request(q))
	case 3:
		p.acts(fmt.Sprintf("CommitRelease(%v)", txn), p.s.CommitRelease(txn), p.m.CommitRelease(txn))
	case 4:
		p.acts(fmt.Sprintf("AbortRelease(%v)", txn), p.s.AbortRelease(txn), p.m.AbortRelease(txn))
	case 5:
		p.acts(fmt.Sprintf("CancelBlocked(%v)", txn), p.s.CancelBlocked(txn), p.m.CancelBlocked(txn))
	case 6:
		p.s.Shield(txn)
		p.m.Shield(txn)
	case 7:
		// Adopt only what cannot block: free items, for a transaction
		// that does not wait.
		if _, waiting := p.m.locks.Waiting(txn); waiting {
			return
		}
		var locks []RecoveredLock
		for item := ids.Item(0); item < lsItems; item++ {
			if y>>item&1 == 1 && len(p.m.locks.HoldersOf(item)) == 0 {
				locks = append(locks, RecoveredLock{Item: item, Write: op/8%2 == 1})
			}
		}
		ts := ids.Txn(op / 16 % lsTxns)
		p.s.Adopt(txn, ids.Client(x%3), ts, locks)
		p.m.Adopt(txn, ids.Client(x%3), ts, locks)
	}
	p.compare()
}

// compare checks every accessor of the two cores and the product's own
// invariants.
func (p *serverPair) compare() {
	p.t.Helper()
	for txn := ids.Txn(1); txn <= lsTxns; txn++ {
		for _, c := range []struct {
			name      string
			got, want any
		}{
			{"Live", p.s.Live(txn), p.m.Live(txn)},
			{"Blocked", p.s.Blocked(txn), p.m.Blocked(txn)},
			{"WaitEdges", p.s.WaitEdges(txn), p.m.WaitEdges(txn)},
			{"HeldLocks", p.s.HeldLocks(txn), p.m.HeldLocks(txn)},
			{"HeldCount", p.s.HeldCount(txn), p.m.HeldCount(txn)},
			{"Ts", p.s.Ts(txn), p.m.Ts(txn)},
			{"ClientOf", p.s.ClientOf(txn), p.m.ClientOf(txn)},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				p.t.Fatalf("%s(%v) = %v, model %v", c.name, txn, c.got, c.want)
			}
		}
	}
	for item := ids.Item(0); item < lsItems; item++ {
		if got, want := p.s.HoldersOf(item), p.m.HoldersOf(item); !slices.Equal(got, want) {
			p.t.Fatalf("HoldersOf(%v) = %v, model %v", item, got, want)
		}
		if got, want := p.s.QueueLen(item), p.m.QueueLen(item); got != want {
			p.t.Fatalf("QueueLen(%v) = %d, model %d", item, got, want)
		}
	}
	if got, want := p.s.Quiet(), p.m.Quiet(); got != want {
		p.t.Fatalf("Quiet() = %v, model %v", got, want)
	}
	if got, want := p.s.Edges(), p.m.Edges(); got != want {
		p.t.Fatalf("Edges() = %d, model %d", got, want)
	}
	if got, want := p.s.Causes(), p.m.Causes(); got != want {
		p.t.Fatalf("Causes() = %+v, model %+v", got, want)
	}
	if err := p.s.Validate(); err != nil {
		p.t.Fatal(err)
	}
	p.checkRecords()
}

// checkRecords verifies what the representation promises: one record per
// transaction the model has any fact about, filed under its own id, the
// blocked and shielded counts right, and recycled records clean.
func (p *serverPair) checkRecords() {
	p.t.Helper()
	s, m := p.s, p.m
	blocked, shielded := 0, 0
	for id, t := range s.txns {
		_, known := m.client[id]
		_, queued := m.req[id]
		_, isBlocked := m.blocked[id]
		if t.id != id || t.known != known || t.live != m.live[id] || t.queued != queued ||
			t.blocked != isBlocked || t.doomed != m.doomed[id] || t.shielded != m.shielded[id] {
			p.t.Fatalf("record %v filed under %v: %+v disagrees with the model's maps", t.id, id, *t)
		}
		if !t.known && !t.live && !t.queued && !t.blocked && !t.doomed && !t.shielded {
			p.t.Fatalf("record %v holds no fact but was not recycled", id)
		}
		if t.blocked {
			blocked++
		}
		if t.shielded {
			shielded++
		}
	}
	for _, set := range [][]ids.Txn{keysOf(m.live), keysOf(m.client), keysOf(m.req), keysOf(m.blocked), keysOf(m.doomed), keysOf(m.shielded)} {
		for _, id := range set {
			if s.txns[id] == nil {
				p.t.Fatalf("model knows %v, product has no record", id)
			}
		}
	}
	if blocked != s.nblocked {
		p.t.Fatalf("blocked count %d, records say %d", s.nblocked, blocked)
	}
	if shielded != s.nshielded {
		p.t.Fatalf("shielded count %d, records say %d", s.nshielded, shielded)
	}
	for _, t := range s.free {
		if len(t.edges) != 0 || t.req != (LockRequest{}) || t.client != 0 || t.ts != 0 ||
			t.known || t.live || t.queued || t.blocked || t.doomed || t.shielded {
			p.t.Fatalf("recycled record (last %v) is not clean: %+v", t.id, *t)
		}
	}
}

func keysOf[V any](m map[ids.Txn]V) []ids.Txn {
	out := make([]ids.Txn, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// run interprets data as a sequence of three-byte events, then checks
// that no action list the product returned was written again.
func (p *serverPair) run(data []byte) {
	p.t.Helper()
	for i := 0; i+2 < len(data); i += 3 {
		p.step(data[i], data[i+1], data[i+2])
	}
	for i, k := range p.kept {
		if !slices.Equal(k[0], k[1]) {
			p.t.Fatalf("action list %d changed after it was returned: %+v, was %+v", i, k[0], k[1])
		}
	}
}

// eachPolicy runs f under every deadlock policy × victim rule.
func eachPolicy(t *testing.T, f func(t *testing.T, policy VictimPolicy, deadlock DeadlockPolicy)) {
	for _, d := range DeadlockPolicies() {
		for _, v := range []VictimPolicy{VictimRequester, VictimLeastHeld} {
			t.Run(d.String()+"/"+v.String(), func(t *testing.T) { f(t, v, d) })
		}
	}
}

// TestLockServerMatchesModel drives product and model with the same
// random event sequences under every policy pair.
func TestLockServerMatchesModel(t *testing.T) {
	eachPolicy(t, func(t *testing.T, policy VictimPolicy, deadlock DeadlockPolicy) {
		rng := rand.New(rand.NewSource(37))
		for round := 0; round < 100; round++ {
			data := make([]byte, 3*(20+rng.Intn(300)))
			rng.Read(data)
			newServerPair(t, policy, deadlock).run(data)
		}
	})
}

// FuzzLockServerModel lets the fuzzer choose the event sequence; the
// first byte picks the policy pair.
func FuzzLockServerModel(f *testing.F) {
	f.Add([]byte{0, 8, 0, 0, 8, 1, 1, 8, 0, 1, 8, 1, 0})           // detect: two-item deadlock
	f.Add([]byte{6, 0, 0, 0, 8, 1, 0, 8, 0, 0, 3, 0, 0})           // wound-wait: younger holder wounded, then commit
	f.Add([]byte{1, 7, 0, 3, 8, 1, 1, 6, 0, 0, 24, 1, 3, 5, 1, 0}) // leastheld: adopt, request, shield, cancel
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		policies := DeadlockPolicies()
		deadlock := policies[int(data[0]/2)%len(policies)]
		policy := VictimPolicy(data[0] % 2)
		newServerPair(t, policy, deadlock).run(data[1:])
	})
}

// TestLockServerAllocs pins the record representation's floor: in steady
// state the uncontended pair allocates nothing, nor does a request that
// blocks behind a holder and is granted by its commit.
func TestLockServerAllocs(t *testing.T) {
	s := NewLockServer(VictimRequester, PolicyDetect)
	txn := ids.Txn(0)
	uncontended := func() {
		txn++
		s.Request(LockRequest{Txn: txn, Item: ids.Item(txn % 64), Write: true})
		s.CommitRelease(txn)
	}
	if n := testing.AllocsPerRun(1000, uncontended); n > 0 {
		t.Errorf("uncontended Request+CommitRelease: %v allocs, want 0", n)
	}
	contended := func() {
		a, b := txn+1, txn+2
		txn += 2
		s.Request(LockRequest{Txn: a, Item: 1, Write: true})
		s.Request(LockRequest{Txn: b, Client: 1, Item: 1, Write: true}) // blocks behind a
		s.CommitRelease(a)                                              // grants b
		s.CommitRelease(b)
	}
	if n := testing.AllocsPerRun(1000, contended); n > 0 {
		t.Errorf("contended pair with its releases: %v allocs, want 0", n)
	}
}
