// Package lock implements the data server's lock manager for the s-2PL
// protocol: shared/exclusive locks per data item with FIFO wait queues and
// group grants of compatible readers (paper §3.1).
//
// The manager is purely a data structure — it performs no I/O and knows
// nothing about time; the s-2PL engine drives it from simulation events
// and the live system drives it from goroutines under its own mutex.
//
// Every fact about a transaction lives in one record: its held locks as a
// slice sorted by item and its one queued request. Records and per-item
// states are recycled through free lists, and Release and CancelWait
// return a buffer the manager owns, so a steady-state acquire, block,
// grant or release allocates nothing.
package lock

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sort"

	"repro/internal/ids"
)

// Mode is a lock mode.
type Mode int

const (
	// Shared permits concurrent readers.
	Shared Mode = iota
	// Exclusive permits a single writer.
	Exclusive
)

// String returns "S" or "X".
func (m Mode) String() string {
	if m == Shared {
		return "S"
	}
	return "X"
}

// Compatible reports whether two locks may be held simultaneously.
func Compatible(a, b Mode) bool { return a == Shared && b == Shared }

// Grant records that a queued request became grantable after a release.
type Grant struct {
	Txn  ids.Txn
	Item ids.Item
	Mode Mode
}

// Held is one lock a transaction holds.
type Held struct {
	Item ids.Item
	Mode Mode
}

// txnLocks is one transaction's record, present exactly while the
// transaction holds or waits for a lock.
type txnLocks struct {
	id   ids.Txn
	held []Held // ascending by item: the order Release frees them in
	// wait is the item of the one queued request, valid while waiting:
	// the paper's clients execute sequentially, requesting one item at a
	// time.
	wait    ids.Item
	waiting bool
}

// findHeld returns item's index in the sorted held slice, or the
// insertion point and false.
func (t *txnLocks) findHeld(item ids.Item) (int, bool) {
	return slices.BinarySearchFunc(t.held, item, func(h Held, it ids.Item) int { return cmp.Compare(h.Item, it) })
}

// setHeld records a granted lock, keeping the slice sorted.
func (t *txnLocks) setHeld(item ids.Item, mode Mode) {
	i, ok := t.findHeld(item)
	if ok {
		t.held[i].Mode = mode
		return
	}
	t.held = slices.Insert(t.held, i, Held{item, mode})
}

// request is one queued lock request. The record outlives the request,
// so promotion reaches the requester without a lookup.
type request struct {
	rec  *txnLocks
	mode Mode
}

// holderEntry is one lock holder of an item.
type holderEntry struct {
	txn  ids.Txn
	mode Mode
}

// itemState keeps an item's holders as a slice sorted ascending by txn
// id. The hot read paths (HoldersOf, WaitsFor) once sorted a map's keys
// on every call; keeping the invariant at insertion makes reads plain
// scans while preserving the exact observable order, so the engines'
// trajectories are unchanged (guarded by the golden-trajectory suite).
type itemState struct {
	holders []holderEntry
	queue   []request
}

// findHolder returns txn's index in the sorted holder slice, or the
// insertion point and false.
func (s *itemState) findHolder(txn ids.Txn) (int, bool) {
	i := sort.Search(len(s.holders), func(i int) bool { return s.holders[i].txn >= txn })
	return i, i < len(s.holders) && s.holders[i].txn == txn
}

// holderMode returns txn's held mode on the item, if any.
func (s *itemState) holderMode(txn ids.Txn) (Mode, bool) {
	if i, ok := s.findHolder(txn); ok {
		return s.holders[i].mode, true
	}
	return Shared, false
}

// setHolder inserts or updates txn's holder entry, keeping the slice
// sorted.
func (s *itemState) setHolder(txn ids.Txn, mode Mode) {
	i, ok := s.findHolder(txn)
	if ok {
		s.holders[i].mode = mode
		return
	}
	s.holders = slices.Insert(s.holders, i, holderEntry{txn: txn, mode: mode})
}

// removeHolder deletes txn's holder entry, if present.
func (s *itemState) removeHolder(txn ids.Txn) {
	if i, ok := s.findHolder(txn); ok {
		s.holders = slices.Delete(s.holders, i, i+1)
	}
}

// compatibleWithHolders reports whether a mode request can join the
// current holders.
func (s *itemState) compatibleWithHolders(mode Mode) bool {
	if mode == Exclusive {
		return len(s.holders) == 0
	}
	for _, h := range s.holders {
		if h.mode == Exclusive {
			return false
		}
	}
	return true
}

// Manager is a lock table over data items. The zero value is not usable;
// construct with NewManager.
type Manager struct {
	items map[ids.Item]*itemState // exactly the items held or waited for
	txns  map[ids.Txn]*txnLocks   // exactly the transactions holding or waiting
	// Recycled states and records, empty and ready for their next owner.
	freeItems []*itemState
	freeTxns  []*txnLocks
	grants    []Grant // Release's and CancelWait's result, reused by the next call
}

// NewManager returns an empty lock table.
func NewManager() *Manager {
	return &Manager{
		items: make(map[ids.Item]*itemState),
		txns:  make(map[ids.Txn]*txnLocks),
	}
}

func (m *Manager) state(item ids.Item) *itemState {
	s := m.items[item]
	if s == nil {
		if n := len(m.freeItems); n > 0 {
			s, m.freeItems = m.freeItems[n-1], m.freeItems[:n-1]
		} else {
			s = &itemState{}
		}
		m.items[item] = s
	}
	return s
}

// record returns txn's record, taking a recycled one if it has none.
func (m *Manager) record(txn ids.Txn) *txnLocks {
	t := m.txns[txn]
	if t == nil {
		if n := len(m.freeTxns); n > 0 {
			t, m.freeTxns = m.freeTxns[n-1], m.freeTxns[:n-1]
		} else {
			t = &txnLocks{}
		}
		t.id = txn
		m.txns[txn] = t
	}
	return t
}

// retire recycles a record that holds and waits for nothing.
func (m *Manager) retire(t *txnLocks) {
	delete(m.txns, t.id)
	t.held = t.held[:0]
	m.freeTxns = append(m.freeTxns, t)
}

// Acquire requests a lock and reports whether it was granted immediately.
// If not, the request joins the item's FIFO queue. A transaction already
// holding a sufficient lock is granted at once; an upgrade from Shared to
// Exclusive is granted only while the transaction is the sole holder,
// otherwise the upgrade waits in the queue.
//
// A transaction may have at most one pending request at a time (the
// paper's sequential execution model); violating that panics, since it
// indicates an engine bug rather than an input error.
func (m *Manager) Acquire(txn ids.Txn, item ids.Item, mode Mode) bool {
	t := m.record(txn)
	if t.waiting {
		panic(fmt.Sprintf("lock: %v requested %v while already waiting on %v", txn, item, t.wait))
	}
	s := m.state(item)
	if cur, holds := s.holderMode(txn); holds {
		if cur == Exclusive || mode == Shared {
			return true // already sufficient
		}
		// Upgrade S -> X: at once only as the sole holder.
		if len(s.holders) == 1 {
			s.setHolder(txn, Exclusive)
			t.setHeld(item, Exclusive)
			return true
		}
	} else if len(s.queue) == 0 && s.compatibleWithHolders(mode) {
		s.setHolder(txn, mode)
		t.setHeld(item, mode)
		return true
	}
	s.queue = append(s.queue, request{t, mode})
	t.wait, t.waiting = item, true
	return false
}

// promote grants queued requests that are now compatible, preserving FIFO
// order: it stops at the first request that conflicts with the (possibly
// just-extended) holder set, so writers are never starved by late readers.
// The grants are appended to m.grants.
func (m *Manager) promote(item ids.Item, s *itemState) {
	n := 0
	for ; n < len(s.queue); n++ {
		r := s.queue[n]
		if cur, holds := s.holderMode(r.rec.id); holds {
			// Queued upgrade: grantable only as sole holder.
			if cur != Shared || r.mode != Exclusive || len(s.holders) != 1 {
				break
			}
		} else if !s.compatibleWithHolders(r.mode) {
			break
		}
		s.setHolder(r.rec.id, r.mode)
		r.rec.setHeld(item, r.mode)
		r.rec.waiting = false
		m.grants = append(m.grants, Grant{r.rec.id, item, r.mode})
	}
	if n > 0 {
		k := copy(s.queue, s.queue[n:])
		clear(s.queue[k:])
		s.queue = s.queue[:k]
	}
	if len(s.queue) == 0 && len(s.holders) == 0 {
		delete(m.items, item)
		m.freeItems = append(m.freeItems, s)
	}
}

// withdraw removes t's queued request and promotes the requests it held
// back.
func (m *Manager) withdraw(t *txnLocks) {
	s := m.items[t.wait]
	for i, r := range s.queue {
		if r.rec == t {
			s.queue = slices.Delete(s.queue, i, i+1)
			break
		}
	}
	t.waiting = false
	m.promote(t.wait, s)
}

// Release ends txn inside the lock table, at commit or abort alike: its
// queued request disappears, promoting the requests behind it, then
// every held lock is freed in ascending item order (the shrinking phase
// of strict 2PL), and the requests that become granted are returned in
// that order. The returned slice is owned by the manager and valid until
// its next call.
func (m *Manager) Release(txn ids.Txn) []Grant {
	m.grants = m.grants[:0]
	t := m.txns[txn]
	if t == nil {
		return nil
	}
	if t.waiting {
		m.withdraw(t)
	}
	for _, h := range t.held {
		s := m.items[h.Item]
		s.removeHolder(txn)
		m.promote(h.Item, s)
	}
	m.retire(t)
	return m.grants
}

// CancelWait removes txn's queued (ungranted) request, if any, returning
// requests that become grantable as a result. Held locks are untouched —
// in a data-shipping system they release only when the client's abort
// round trip completes. The returned slice is owned by the manager and
// valid until its next call.
func (m *Manager) CancelWait(txn ids.Txn) []Grant {
	m.grants = m.grants[:0]
	t := m.txns[txn]
	if t == nil || !t.waiting {
		return nil
	}
	m.withdraw(t)
	if len(t.held) == 0 {
		m.retire(t)
	}
	return m.grants
}

// HoldersOf returns the transactions currently holding a lock on item, in
// ascending id order so callers observe a deterministic view. The holder
// slice maintains that order, so this is a single copy with no sorting.
func (m *Manager) HoldersOf(item ids.Item) []ids.Txn {
	s := m.items[item]
	if s == nil {
		return nil
	}
	out := make([]ids.Txn, len(s.holders))
	for i, h := range s.holders {
		out[i] = h.txn
	}
	return out
}

// HeldCount returns how many items txn currently holds locks on, without
// copying the held set (deadlock victim selection calls this per cycle
// member).
func (m *Manager) HeldCount(txn ids.Txn) int { return len(m.Held(txn)) }

// Held returns the locks txn holds in ascending item order. The slice is
// the manager's own: read it before the next call that changes the table.
func (m *Manager) Held(txn ids.Txn) []Held {
	if t := m.txns[txn]; t != nil {
		return t.held
	}
	return nil
}

// Waiting returns the item txn is queued on, if any.
func (m *Manager) Waiting(txn ids.Txn) (ids.Item, bool) {
	if t := m.txns[txn]; t != nil && t.waiting {
		return t.wait, true
	}
	return 0, false
}

// WaitsFor returns the transactions that block txn's pending request; see
// AppendWaitsFor.
func (m *Manager) WaitsFor(txn ids.Txn) []ids.Txn { return m.AppendWaitsFor(nil, txn) }

// AppendWaitsFor appends to dst the transactions that block txn's pending
// request: the current holders whose locks conflict with it, plus
// conflicting requests queued ahead of it, each once. These are exactly
// the wait-for-graph edges the s-2PL deadlock detector needs (paper §4).
// It returns dst unchanged when txn is not waiting.
func (m *Manager) AppendWaitsFor(dst []ids.Txn, txn ids.Txn) []ids.Txn {
	t := m.txns[txn]
	if t == nil || !t.waiting {
		return dst
	}
	s := m.items[t.wait]
	pos := slices.IndexFunc(s.queue, func(r request) bool { return r.rec == t })
	if pos < 0 {
		return dst
	}
	mode, start := s.queue[pos].mode, len(dst)
	add := func(b ids.Txn) {
		// The upgrade case's own shared lock does not block itself.
		if b != txn && !slices.Contains(dst[start:], b) {
			dst = append(dst, b)
		}
	}
	// Conflicting holders first — the holder slice is kept in ascending id
	// order, so the stored edge list is deterministic without sorting —
	// then conflicting requests queued ahead, in FIFO order.
	for _, h := range s.holders {
		if !Compatible(h.mode, mode) {
			add(h.txn)
		}
	}
	for _, r := range s.queue[:pos] {
		if !Compatible(r.mode, mode) {
			add(r.rec.id)
		}
	}
	return dst
}

// QueueLen returns the number of queued (ungranted) requests on item.
func (m *Manager) QueueLen(item ids.Item) int {
	s := m.items[item]
	if s == nil {
		return 0
	}
	return len(s.queue)
}

// Validate checks internal invariants: holder sets are mode-compatible,
// and the per-transaction records agree with the per-item states. It
// returns an error describing the first violation. Tests and the live
// system's debug mode call this; engines do not, for speed.
func (m *Manager) Validate() error {
	// Sorted iteration keeps the reported first violation stable run to run.
	for _, item := range slices.Sorted(maps.Keys(m.items)) {
		s := m.items[item]
		writers := 0
		for i, h := range s.holders {
			if i > 0 && s.holders[i-1].txn >= h.txn {
				return fmt.Errorf("lock: holder slice of %v not sorted", item)
			}
			if h.mode == Exclusive {
				writers++
			}
			if t := m.txns[h.txn]; t == nil || !slices.Contains(t.held, Held{item, h.mode}) {
				return fmt.Errorf("lock: held index disagrees for %v on %v", h.txn, item)
			}
		}
		if writers > 1 || (writers == 1 && len(s.holders) > 1) {
			// One exception: a queued upgrade means a sole shared holder;
			// writers>0 with other holders is always invalid.
			return fmt.Errorf("lock: incompatible holders on %v", item)
		}
		for _, r := range s.queue {
			if m.txns[r.rec.id] != r.rec || !r.rec.waiting || r.rec.wait != item {
				return fmt.Errorf("lock: waiting index disagrees for %v on %v", r.rec.id, item)
			}
		}
	}
	for _, id := range slices.Sorted(maps.Keys(m.txns)) {
		t := m.txns[id]
		if t.id != id || (len(t.held) == 0 && !t.waiting) {
			return fmt.Errorf("lock: record of %v filed under %v or empty", t.id, id)
		}
		for i, h := range t.held {
			s := m.items[h.Item]
			if s == nil || !slices.Contains(s.holders, holderEntry{id, h.Mode}) || (i > 0 && t.held[i-1].Item >= h.Item) {
				return fmt.Errorf("lock: stale or unsorted held entry %v on %v", id, h.Item)
			}
		}
	}
	return nil
}
