package protocol

import (
	"repro/internal/fwdlist"
	"repro/internal/ids"
)

// FlightPlan is the immutable routing plan of one dispatched g-2PL
// forward list: which transactions receive the migrating data when each
// segment dispatches, who collects reader releases, and where the data
// goes afterwards. A copy travels with every data message of the flight
// (the paper's "a copy of the forward list is also sent with each data
// item"), so both the server and each client derive routing entirely
// locally. The rules below have two callers, both in this package:
// GroupServer dispatches the first segment, GroupClient routes everything
// after it — so the MR1W delivery and release logic exists in exactly one
// place, whichever driver carries the messages.
type FlightPlan struct {
	// Item is the data item this flight migrates.
	Item ids.Item
	// List is the ordered, segmented forward list.
	List *fwdlist.List
	// MR1W: a read group's successor writer receives the data together
	// with the readers (paper §3.4); false means the data rides on the
	// readers' release messages instead.
	MR1W bool
}

// SegOf returns the segment index of txn, or -1 when it is not on the
// list (for instance a read-expansion extra).
func (p *FlightPlan) SegOf(txn ids.Txn) int { return p.List.SegmentOf(txn) }

// IsFinal reports whether j is the last segment.
func (p *FlightPlan) IsFinal(j int) bool { return j == p.List.NumSegments()-1 }

// Recipients returns the entries that receive the data when segment j
// dispatches, in emission order: a write segment's single writer, or a
// read group's readers followed — under MR1W, when a successor segment
// exists — by the next segment's writer receiving its copy concurrently.
// The result may be the list's own storage: read it, do not change it.
func (p *FlightPlan) Recipients(j int) []fwdlist.Entry {
	seg := p.List.Segment(j)
	if seg.Write || !p.MR1W || j+1 >= p.List.NumSegments() {
		return seg.Entries
	}
	out := make([]fwdlist.Entry, 0, len(seg.Entries)+1)
	return append(append(out, seg.Entries...), p.List.Segment(j + 1).Entries[0])
}

// RelWaitFor returns how many reader releases the writer in segment j
// gathers before its data is complete (basic mode) or its forwards may
// proceed (MR1W): the size of the preceding read group, 0 when a writer
// or the server precedes it.
func (p *FlightPlan) RelWaitFor(j int) int {
	if j == 0 {
		return 0
	}
	prev := p.List.Segment(j - 1)
	if prev.Write {
		return 0
	}
	return len(prev.Entries)
}

// ReleaseTarget returns where a reader in segment j sends its release:
// the successor writer's (client, txn), or (ids.Server, ids.None) from
// the final read group.
func (p *FlightPlan) ReleaseTarget(j int) (ids.Client, ids.Txn) {
	if j+1 < p.List.NumSegments() {
		e := p.List.Segment(j + 1).Entries[0]
		return e.Client, e.Txn
	}
	return ids.Server, ids.None
}

// HomeReturnOnDispatch reports whether dispatching segment j is
// accompanied by the data's return to the server: a final read group
// dispatched by a writer (not the server) sends the new version home
// alongside the reader copies.
func (p *FlightPlan) HomeReturnOnDispatch(j int) bool {
	return p.IsFinal(j) && !p.List.Segment(j).Write && j > 0
}

// FinalReturns is the number of messages the server awaits before the
// window closes, a static property of the plan: a final writer returns
// the data (one message); a final read group sends one release per reader
// plus, when a writer dispatched it, the data's separate return home.
func (p *FlightPlan) FinalReturns() int {
	last := p.List.NumSegments() - 1
	seg := p.List.Segment(last)
	if seg.Write {
		return 1
	}
	n := len(seg.Entries)
	if last > 0 {
		n++
	}
	return n
}

// Size approximates the forward list's wire footprint in abstract payload
// units: one unit per entry.
func (p *FlightPlan) Size() int { return p.List.Len() }
