package lock

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"repro/internal/ids"
)

// The struct-of-maps lock table this package shipped before the
// one-record-per-transaction representation, kept verbatim as the
// reference model the differential tests and FuzzLockModel compare the
// product against. Only the names changed, and its Release is left out:
// it stranded waiters behind a withdrawn request, so the model's Drop is
// the reference for the product's Release.

type modelRequest struct {
	txn  ids.Txn
	mode Mode
}

// modelHolder is one lock holder of an item.
type modelHolder struct {
	txn  ids.Txn
	mode Mode
}

// modelItem keeps an item's holders as a slice sorted ascending by txn
// id. The hot read paths (HoldersOf, WaitsFor) once sorted a map's keys
// on every call; keeping the invariant at insertion makes reads plain
// scans while preserving the exact observable order, so the engines'
// trajectories are unchanged (guarded by the golden-trajectory suite).
type modelItem struct {
	holders []modelHolder
	queue   []modelRequest
}

// findHolder returns txn's index in the sorted holder slice, or the
// insertion point and false.
func (s *modelItem) findHolder(txn ids.Txn) (int, bool) {
	i := sort.Search(len(s.holders), func(i int) bool { return s.holders[i].txn >= txn })
	return i, i < len(s.holders) && s.holders[i].txn == txn
}

// holderMode returns txn's held mode on the item, if any.
func (s *modelItem) holderMode(txn ids.Txn) (Mode, bool) {
	if i, ok := s.findHolder(txn); ok {
		return s.holders[i].mode, true
	}
	return Shared, false
}

// setHolder inserts or updates txn's holder entry, keeping the slice
// sorted.
func (s *modelItem) setHolder(txn ids.Txn, mode Mode) {
	i, ok := s.findHolder(txn)
	if ok {
		s.holders[i].mode = mode
		return
	}
	s.holders = append(s.holders, modelHolder{})
	copy(s.holders[i+1:], s.holders[i:])
	s.holders[i] = modelHolder{txn: txn, mode: mode}
}

// removeHolder deletes txn's holder entry, if present.
func (s *modelItem) removeHolder(txn ids.Txn) {
	if i, ok := s.findHolder(txn); ok {
		s.holders = append(s.holders[:i], s.holders[i+1:]...)
	}
}

// model is a lock table over data items. The zero value is not usable;
// construct with newModel.
type model struct {
	items map[ids.Item]*modelItem
	// held tracks, per transaction, which items it holds locks on, so
	// Release/Drop are O(locks held) rather than O(table).
	held map[ids.Txn]map[ids.Item]Mode
	// waiting tracks at most one queued request per transaction: the
	// paper's clients execute sequentially, requesting one item at a time.
	waiting map[ids.Txn]ids.Item
}

// newModel returns an empty lock table.
func newModel() *model {
	return &model{
		items:   make(map[ids.Item]*modelItem),
		held:    make(map[ids.Txn]map[ids.Item]Mode),
		waiting: make(map[ids.Txn]ids.Item),
	}
}

func (m *model) state(item ids.Item) *modelItem {
	s := m.items[item]
	if s == nil {
		s = &modelItem{}
		m.items[item] = s
	}
	return s
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
func (m *model) Acquire(txn ids.Txn, item ids.Item, mode Mode) bool {
	if it, ok := m.waiting[txn]; ok {
		panic(fmt.Sprintf("lock: %v requested %v while already waiting on %v", txn, item, it))
	}
	s := m.state(item)
	if cur, holds := s.holderMode(txn); holds {
		if cur == Exclusive || mode == Shared {
			return true // already sufficient
		}
		// Upgrade S -> X.
		if len(s.holders) == 1 {
			s.setHolder(txn, Exclusive)
			m.held[txn][item] = Exclusive
			return true
		}
		s.queue = append(s.queue, modelRequest{txn, Exclusive})
		m.waiting[txn] = item
		return false
	}
	if len(s.queue) == 0 && m.compatibleWithHolders(s, mode) {
		m.grant(s, txn, item, mode)
		return true
	}
	s.queue = append(s.queue, modelRequest{txn, mode})
	m.waiting[txn] = item
	return false
}

func (m *model) compatibleWithHolders(s *modelItem, mode Mode) bool {
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

func (m *model) grant(s *modelItem, txn ids.Txn, item ids.Item, mode Mode) {
	s.setHolder(txn, mode)
	h := m.held[txn]
	if h == nil {
		h = make(map[ids.Item]Mode)
		m.held[txn] = h
	}
	h[item] = mode
}

// promote grants queued requests that are now compatible, preserving FIFO
// order: it stops at the first request that conflicts with the (possibly
// just-extended) holder set, so writers are never starved by late readers.
func (m *model) promote(item ids.Item, s *modelItem) []Grant {
	var grants []Grant
	for len(s.queue) > 0 {
		r := s.queue[0]
		if cur, holds := s.holderMode(r.txn); holds {
			// Queued upgrade: grantable only as sole holder.
			if cur == Shared && r.mode == Exclusive && len(s.holders) == 1 {
				s.setHolder(r.txn, Exclusive)
				m.held[r.txn][item] = Exclusive
				delete(m.waiting, r.txn)
				grants = append(grants, Grant{r.txn, item, Exclusive})
				s.queue = s.queue[1:]
				continue
			}
			break
		}
		if !m.compatibleWithHolders(s, r.mode) {
			break
		}
		m.grant(s, r.txn, item, r.mode)
		delete(m.waiting, r.txn)
		grants = append(grants, Grant{r.txn, item, r.mode})
		s.queue = s.queue[1:]
	}
	if len(s.queue) == 0 && len(s.holders) == 0 {
		delete(m.items, item)
	}
	return grants
}

// itemsHeldSorted returns the items txn holds locks on in ascending order,
// giving Release and Drop a deterministic grant order regardless of map
// iteration.
func (m *model) itemsHeldSorted(txn ids.Txn) []ids.Item {
	out := make([]ids.Item, 0, len(m.held[txn]))
	//repolint:allow maprange -- keys are sorted before use
	for item := range m.held[txn] {
		out = append(out, item)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (m *model) removeQueued(txn ids.Txn, item ids.Item) {
	s := m.items[item]
	if s == nil {
		return
	}
	for i, r := range s.queue {
		if r.txn == txn {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			break
		}
	}
	delete(m.waiting, txn)
	// Removing a queue head (e.g. a blocked writer) can unblock others.
	_ = s // grants from this path are returned by the caller via promote
}

// CancelWait removes txn's queued (ungranted) request, if any, returning
// requests that become grantable as a result. Held locks are untouched —
// in a data-shipping system they release only when the client's abort
// round trip completes.
func (m *model) CancelWait(txn ids.Txn) []Grant {
	item, ok := m.waiting[txn]
	if !ok {
		return nil
	}
	m.removeQueued(txn, item)
	if s := m.items[item]; s != nil {
		return m.promote(item, s)
	}
	return nil
}

// Drop aborts txn inside the lock table: its queued request disappears and
// its held locks are released. It returns newly granted requests. Drop and
// Release are distinct names because engines treat them differently
// (commit vs abort) even though the table-level effect is the same.
func (m *model) Drop(txn ids.Txn) []Grant {
	var grants []Grant
	if item, ok := m.waiting[txn]; ok {
		m.removeQueued(txn, item)
		if s := m.items[item]; s != nil {
			grants = append(grants, m.promote(item, s)...)
		}
	}
	for _, item := range m.itemsHeldSorted(txn) {
		s := m.items[item]
		s.removeHolder(txn)
		grants = append(grants, m.promote(item, s)...)
	}
	delete(m.held, txn)
	return grants
}

// HoldersOf returns the transactions currently holding a lock on item, in
// ascending id order so callers observe a deterministic view. The holder
// slice maintains that order, so this is a single copy with no sorting.
func (m *model) HoldersOf(item ids.Item) []ids.Txn {
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
func (m *model) HeldCount(txn ids.Txn) int { return len(m.held[txn]) }

// HeldBy returns the items txn currently holds locks on, with modes.
func (m *model) HeldBy(txn ids.Txn) map[ids.Item]Mode {
	out := make(map[ids.Item]Mode, len(m.held[txn]))
	maps.Copy(out, m.held[txn])
	return out
}

// Waiting returns the item txn is queued on, if any.
func (m *model) Waiting(txn ids.Txn) (ids.Item, bool) {
	it, ok := m.waiting[txn]
	return it, ok
}

// WaitsFor returns the transactions that block txn's pending request: the
// current holders whose locks conflict with it, plus conflicting requests
// queued ahead of it. These are exactly the wait-for-graph edges the s-2PL
// deadlock detector needs (paper §4).
func (m *model) WaitsFor(txn ids.Txn) []ids.Txn {
	item, ok := m.waiting[txn]
	if !ok {
		return nil
	}
	s := m.items[item]
	var mode Mode
	pos := -1
	for i, r := range s.queue {
		if r.txn == txn {
			mode, pos = r.mode, i
			break
		}
	}
	if pos < 0 {
		return nil
	}
	var out []ids.Txn
	add := func(t ids.Txn) {
		if t == txn {
			return // upgrade case: own shared lock does not block itself
		}
		for _, have := range out {
			if have == t {
				return
			}
		}
		out = append(out, t)
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
			add(r.txn)
		}
	}
	return out
}

// QueueLen returns the number of queued (ungranted) requests on item.
func (m *model) QueueLen(item ids.Item) int {
	s := m.items[item]
	if s == nil {
		return 0
	}
	return len(s.queue)
}

// Validate checks internal invariants: holder sets are mode-compatible,
// held/waiting indexes agree with the per-item states. It returns an error
// describing the first violation. Tests and the live system's debug mode
// call this; engines do not, for speed.
func (m *model) Validate() error {
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
			if m.held[h.txn][item] != h.mode {
				return fmt.Errorf("lock: held index disagrees for %v on %v", h.txn, item)
			}
		}
		if writers > 1 || (writers == 1 && len(s.holders) > 1) {
			// One exception: a queued upgrade means a sole shared holder;
			// writers>0 with other holders is always invalid.
			return fmt.Errorf("lock: incompatible holders on %v", item)
		}
		for _, r := range s.queue {
			if it, ok := m.waiting[r.txn]; !ok || it != item {
				return fmt.Errorf("lock: waiting index disagrees for %v on %v", r.txn, item)
			}
		}
	}
	for _, t := range slices.Sorted(maps.Keys(m.held)) {
		items := m.held[t]
		for _, item := range slices.Sorted(maps.Keys(items)) {
			mode := items[item]
			s := m.items[item]
			if s == nil {
				return fmt.Errorf("lock: stale held entry %v on %v", t, item)
			}
			if got, ok := s.holderMode(t); !ok || got != mode {
				return fmt.Errorf("lock: stale held entry %v on %v", t, item)
			}
		}
	}
	return nil
}
