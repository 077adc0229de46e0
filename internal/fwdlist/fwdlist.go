// Package fwdlist implements the forward list (FL), the central data
// structure of the g-2PL protocol (paper §3.2): the ordered list of
// clients with pending lock requests for a data item, "with appropriate
// markers to delimit the parallel shared accesses and the serial exclusive
// access".
//
// A List is a sequence of segments. A read segment groups consecutive
// readers, who receive copies of the item in parallel; a write segment is
// a single writer. The engine walks segments to route data migration,
// releases and (with MR1W, paper §3.4) the concurrent reader/writer
// dispatch.
package fwdlist

import (
	"fmt"
	"strings"

	"repro/internal/ids"
)

// Entry is one pending request on a forward list.
type Entry struct {
	Txn    ids.Txn
	Client ids.Client
	Write  bool
}

// String renders an entry as e.g. "T7@C3:R".
func (e Entry) String() string {
	m := "R"
	if e.Write {
		m = "W"
	}
	return fmt.Sprintf("%v@%v:%s", e.Txn, e.Client, m)
}

// Segment is a maximal run of readers, or a single writer. Entries is a
// window onto its List's storage: read it, do not change it.
type Segment struct {
	Write   bool
	Entries []Entry
}

// List is a segmented forward list. Lists are immutable after Build: a
// dispatched FL never changes (late requests go to the next collection
// window, paper §3.2); the read-expansion extension builds a new List
// instead of mutating.
type List struct {
	segs    []Segment
	entries []Entry
	txns    []ids.Txn
}

// Build groups the ordered entries into segments. The order of entries is
// the lock-granting order chosen by the server (FIFO or the deadlock-
// avoidance reorder); Build preserves it exactly.
func Build(entries []Entry) *List {
	l := &List{entries: append([]Entry(nil), entries...), txns: make([]ids.Txn, len(entries))}
	nsegs := 0
	for i, e := range l.entries {
		l.txns[i] = e.Txn
		if e.Write || i == 0 || l.entries[i-1].Write {
			nsegs++
		}
	}
	// Each segment is a capacity-clipped window onto l.entries, so an
	// append through one cannot reach its neighbour.
	l.segs = make([]Segment, 0, nsegs)
	for i := 0; i < len(l.entries); {
		j := i + 1
		for !l.entries[i].Write && j < len(l.entries) && !l.entries[j].Write {
			j++
		}
		l.segs = append(l.segs, Segment{Write: l.entries[i].Write, Entries: l.entries[i:j:j]})
		i = j
	}
	return l
}

// Len returns the total number of entries.
func (l *List) Len() int { return len(l.entries) }

// NumSegments returns the number of segments.
func (l *List) NumSegments() int { return len(l.segs) }

// Segment returns the i-th segment.
func (l *List) Segment(i int) Segment { return l.segs[i] }

// Entries returns a copy of the flat entry list in order.
func (l *List) Entries() []Entry { return append([]Entry(nil), l.entries...) }

// Txns returns the transactions on the list, in order. The slice is
// computed once at Build and shared by every caller: read it, do not
// change it.
func (l *List) Txns() []ids.Txn { return l.txns }

// SegmentOf returns the segment index containing txn, or -1.
func (l *List) SegmentOf(txn ids.Txn) int {
	for i, s := range l.segs {
		for _, e := range s.Entries {
			if e.Txn == txn {
				return i
			}
		}
	}
	return -1
}

// EntryOf returns the entry for txn and whether it exists.
func (l *List) EntryOf(txn ids.Txn) (Entry, bool) {
	for _, e := range l.entries {
		if e.Txn == txn {
			return e, true
		}
	}
	return Entry{}, false
}

// String renders the list with the paper's marker notation, e.g.
// "[ (T1@C1:R T2@C2:R) | T3@C3:W | (T4@C1:R) ]": parentheses delimit
// parallel shared groups, bars separate serial steps.
func (l *List) String() string {
	var parts []string
	for _, s := range l.segs {
		if s.Write {
			parts = append(parts, s.Entries[0].String())
			continue
		}
		inner := make([]string, len(s.Entries))
		for i, e := range s.Entries {
			inner[i] = e.String()
		}
		parts = append(parts, "("+strings.Join(inner, " ")+")")
	}
	return "[ " + strings.Join(parts, " | ") + " ]"
}

// Validate checks structural invariants: write segments are singletons,
// read segments are nonempty and maximal, no transaction appears twice.
func (l *List) Validate() error {
	seen := make(map[ids.Txn]bool)
	total := 0
	for i, s := range l.segs {
		if len(s.Entries) == 0 {
			return fmt.Errorf("fwdlist: empty segment %d", i)
		}
		if s.Write && len(s.Entries) != 1 {
			return fmt.Errorf("fwdlist: write segment %d has %d entries", i, len(s.Entries))
		}
		if !s.Write && i > 0 && !l.segs[i-1].Write {
			return fmt.Errorf("fwdlist: adjacent read segments %d and %d not merged", i-1, i)
		}
		for _, e := range s.Entries {
			if e.Write != s.Write {
				return fmt.Errorf("fwdlist: entry %v mode disagrees with segment %d", e, i)
			}
			if seen[e.Txn] {
				return fmt.Errorf("fwdlist: duplicate transaction %v", e.Txn)
			}
			seen[e.Txn] = true
			total++
		}
	}
	if total != len(l.entries) {
		return fmt.Errorf("fwdlist: segment entries (%d) disagree with flat list (%d)", total, len(l.entries))
	}
	return nil
}
