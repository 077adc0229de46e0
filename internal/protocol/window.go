package protocol

import (
	"sort"

	"repro/internal/fwdlist"
	"repro/internal/ids"
	"repro/internal/prec"
	"repro/internal/wfg"
)

// WindowOptions configures the g-2PL dispatch rules.
type WindowOptions struct {
	// NoAvoidance disables consistent forward-list ordering (the paper's
	// deadlock-avoidance mechanism); windows fall back to reader grouping
	// or pure FIFO.
	NoAvoidance bool
	// FIFOWindows disables the reader-grouping ordering rule: forward
	// lists keep pure arrival order.
	FIFOWindows bool
	// MaxForwardList caps entries dispatched per window; 0 = unlimited.
	// The remainder forms the next collection window.
	MaxForwardList int
	// MR1W is stamped onto every FlightPlan the dispatcher builds.
	MR1W bool
}

// WindowRequest is one pending request in an item's collection window.
type WindowRequest struct {
	Txn    ids.Txn
	Client ids.Client
	Write  bool
}

// Dispatcher owns the g-2PL ordering state — the wait-for graph used for
// deadlock detection and the precedence graph enforcing consistent
// forward-list order across items — plus the window dispatch rules.
// GroupServer is its one production caller; Waits and Order are exported
// for the benchmark's per-layer probes.
type Dispatcher struct {
	// Waits is the wait-for graph; a cycle through a blocked request is a
	// deadlock.
	Waits *wfg.Graph
	// Order is the precedence graph recording forward-list grant order.
	Order *prec.Graph
	// Opts are the dispatch rules in force.
	Opts WindowOptions

	// PlanWindow's scratch, reused by every call.
	txns    []ids.Txn
	writes  []bool
	ordered []WindowRequest
	victims []WindowRequest
	entries []fwdlist.Entry
}

// NewDispatcher returns an empty g-2PL dispatch core.
func NewDispatcher(opts WindowOptions) *Dispatcher {
	return &Dispatcher{Waits: wfg.New(), Order: prec.New(), Opts: opts}
}

// PlanWindow closes an item's collection window: order the pending
// requests (consistently with the precedence graph unless avoidance is
// off, grouping readers unless FIFOWindows), apply the length cap, then
// resolve dispatch-time deadlocks — the forward-list chain edges can
// close a wait-for cycle through transactions blocked on other items, and
// the offending members are removed latest-in-order first (the paper's
// "in the case that such reordering of forward lists is not possible,
// some transactions may have to be aborted", §3.3).
//
// It returns the flight plan (nil when every capped request fell to a
// cycle), the dispatch-time victims in the order the driver must abort
// them, and the cap remainder that forms the next window; victims and
// rest are the dispatcher's storage (or reqs'), good until the next call.
// On return the surviving list's chain edges are installed in Waits and
// its order is recorded in Order; the caller must not have request-level
// wait edges installed for reqs, which holds one request per transaction.
func (d *Dispatcher) PlanWindow(item ids.Item, reqs []WindowRequest) (plan *FlightPlan, victims, rest []WindowRequest) {
	ordered := reqs
	switch {
	case !d.Opts.NoAvoidance:
		d.txns, d.writes = d.txns[:0], d.writes[:0]
		for _, q := range reqs {
			d.txns = append(d.txns, q.Txn)
			d.writes = append(d.writes, q.Write)
		}
		var order []ids.Txn
		if d.Opts.FIFOWindows {
			order = d.Order.Order(d.txns)
		} else {
			order = d.Order.OrderGrouped(d.txns, d.writes)
		}
		d.ordered = d.ordered[:0]
		for _, id := range order {
			for _, q := range reqs {
				if q.Txn == id {
					d.ordered = append(d.ordered, q)
					break
				}
			}
		}
		ordered = d.ordered
	case !d.Opts.FIFOWindows:
		// No precedence constraints to respect: stable-partition the
		// window's readers ahead of its writers.
		d.ordered = d.ordered[:0]
		for _, q := range reqs {
			if !q.Write {
				d.ordered = append(d.ordered, q)
			}
		}
		for _, q := range reqs {
			if q.Write {
				d.ordered = append(d.ordered, q)
			}
		}
		ordered = d.ordered
	}
	if limit := d.Opts.MaxForwardList; limit > 0 && len(ordered) > limit {
		rest = ordered[limit:]
		ordered = ordered[:limit]
	}

	d.victims = d.victims[:0]
	list := d.build(ordered)
	d.addChainEdges(list)
	for {
		victim := -1
		for i := len(ordered) - 1; i >= 0; i-- {
			if d.Waits.CycleThrough(ordered[i].Txn) != nil {
				victim = i
				break
			}
		}
		if victim < 0 {
			break
		}
		d.removeChainEdges(list)
		v := ordered[victim]
		ordered = append(ordered[:victim], ordered[victim+1:]...)
		d.Order.Remove(v.Txn)
		d.victims = append(d.victims, v)
		list = d.build(ordered)
		d.addChainEdges(list)
	}
	if len(ordered) == 0 {
		d.removeChainEdges(list)
		return nil, d.victims, rest
	}
	if !d.Opts.NoAvoidance {
		d.Order.Record(list.Txns())
	}
	return &FlightPlan{Item: item, List: list, MR1W: d.Opts.MR1W}, d.victims, rest
}

// build segments ordered window requests into a forward list.
func (d *Dispatcher) build(reqs []WindowRequest) *fwdlist.List {
	d.entries = d.entries[:0]
	for _, q := range reqs {
		d.entries = append(d.entries, fwdlist.Entry{Txn: q.Txn, Client: q.Client, Write: q.Write})
	}
	return fwdlist.Build(d.entries) // Build copies what it keeps
}

// addChainEdges installs the forward-list precedence waits: each member
// waits for every member of the preceding segment until that member
// releases or forwards the item.
func (d *Dispatcher) addChainEdges(list *fwdlist.List) {
	for j := 1; j < list.NumSegments(); j++ {
		for _, e := range list.Segment(j).Entries {
			for _, p := range list.Segment(j - 1).Entries {
				d.Waits.AddEdge(e.Txn, p.Txn)
			}
		}
	}
}

// removeChainEdges undoes addChainEdges for a tentative list.
func (d *Dispatcher) removeChainEdges(list *fwdlist.List) {
	for j := 1; j < list.NumSegments(); j++ {
		for _, e := range list.Segment(j).Entries {
			for _, p := range list.Segment(j - 1).Entries {
				d.Waits.RemoveEdge(e.Txn, p.Txn)
			}
		}
	}
}

// BlockOnFlight makes a pending request wait for every unfinished member
// of the in-flight forward list — a cycle through these edges is exactly
// the paper's cross-window (read-dependency) deadlock — and, unless
// avoidance is off, constrains the precedence graph: every in-flight
// member is granted this item before the pending request, so wherever
// both meet again the member must come first. It returns the wait edges
// installed, which the caller stores and later removes with Unblock.
func (d *Dispatcher) BlockOnFlight(f *Flight, txn ids.Txn) []ids.Txn {
	edges := f.Unfinished()
	for _, m := range edges {
		d.Waits.AddEdge(txn, m)
	}
	if !d.Opts.NoAvoidance {
		for _, m := range edges {
			d.Order.Constrain(m, txn)
		}
	}
	return edges
}

// Unblock removes previously-installed request wait edges.
func (d *Dispatcher) Unblock(txn ids.Txn, edges []ids.Txn) {
	for _, m := range edges {
		d.Waits.RemoveEdge(txn, m)
	}
}

// MemberDone marks a flight member as finished (released or forwarded the
// item) and drops the chain wait-for edges from the next segment's
// members toward it. Extras (off-list members) only mark. It reports
// false, and does nothing, when txn is no member or already finished.
func (d *Dispatcher) MemberDone(f *Flight, txn ids.Txn) bool {
	done := f.flag(txn)
	if done == nil || *done {
		return false
	}
	*done = true
	f.left--
	list := f.Plan.List
	if j := f.Plan.SegOf(txn); j >= 0 && j+1 < list.NumSegments() {
		for _, e := range list.Segment(j + 1).Entries {
			d.Waits.RemoveEdge(e.Txn, txn)
		}
	}
	return true
}

// Flight tracks the server-side view of one dispatched forward list:
// which members have finished and which late readers joined via the
// read-expansion extension.
type Flight struct {
	// Plan is the immutable routing plan the flight dispatched with.
	Plan   *FlightPlan
	done   []bool  // by list position
	extras []extra // ascending ids; late readers admitted by read expansion
	left   int     // members, extras included, not yet done
}

// extra is one read-expansion member and its done flag.
type extra struct {
	txn  ids.Txn
	done bool
}

// NewFlight returns the tracking state for a freshly dispatched plan.
func NewFlight(plan *FlightPlan) *Flight {
	n := plan.List.Len()
	return &Flight{Plan: plan, done: make([]bool, n), left: n}
}

// Unfinished returns the ids of members (including extras) that have not
// yet released or forwarded the item — the transactions a new pending
// request must wait for — in a slice the caller owns. List members come
// first in list order, then extras in ascending id order.
func (f *Flight) Unfinished() []ids.Txn {
	if f.left == 0 {
		return nil
	}
	out := make([]ids.Txn, 0, f.left)
	for i, t := range f.Plan.List.Txns() {
		if !f.done[i] {
			out = append(out, t)
		}
	}
	for _, e := range f.extras {
		if !e.done {
			out = append(out, e.txn)
		}
	}
	return out
}

// AddExtra admits a late reader (read expansion) as a flight member.
func (f *Flight) AddExtra(txn ids.Txn) {
	i := f.extraAt(txn)
	f.extras = append(f.extras, extra{})
	copy(f.extras[i+1:], f.extras[i:])
	f.extras[i] = extra{txn: txn}
	f.left++
}

// extraAt returns the position in extras at which txn is or would be.
func (f *Flight) extraAt(txn ids.Txn) int {
	return sort.Search(len(f.extras), func(i int) bool { return f.extras[i].txn >= txn })
}

// flag returns txn's done flag, nil when it is not a member.
func (f *Flight) flag(txn ids.Txn) *bool {
	for i, t := range f.Plan.List.Txns() {
		if t == txn {
			return &f.done[i]
		}
	}
	if i := f.extraAt(txn); i < len(f.extras) && f.extras[i].txn == txn {
		return &f.extras[i].done
	}
	return nil
}
