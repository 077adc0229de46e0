package fwdlist

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ids"
)

func entry(t ids.Txn, c ids.Client, w bool) Entry { return Entry{Txn: t, Client: c, Write: w} }

func TestBuildSegmentsMixed(t *testing.T) {
	l := Build([]Entry{
		entry(1, 1, false),
		entry(2, 2, false),
		entry(3, 3, true),
		entry(4, 4, false),
		entry(5, 5, true),
		entry(6, 6, true),
	})
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 6 {
		t.Fatalf("Len = %d", l.Len())
	}
	if l.NumSegments() != 5 {
		t.Fatalf("segments = %d, want 5 (RR | W | R | W | W)", l.NumSegments())
	}
	s0 := l.Segment(0)
	if s0.Write || len(s0.Entries) != 2 {
		t.Fatalf("segment 0 = %+v", s0)
	}
	s1 := l.Segment(1)
	if !s1.Write || s1.Entries[0].Txn != 3 {
		t.Fatalf("segment 1 = %+v", s1)
	}
}

func TestBuildEmpty(t *testing.T) {
	l := Build(nil)
	if l.Len() != 0 || l.NumSegments() != 0 {
		t.Fatal("empty build not empty")
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildCopiesInput(t *testing.T) {
	in := []Entry{entry(1, 1, false)}
	l := Build(in)
	in[0].Txn = 99
	if l.Entries()[0].Txn != 1 {
		t.Fatal("Build aliased caller slice")
	}
	out := l.Entries()
	out[0].Txn = 77
	if l.Entries()[0].Txn != 1 {
		t.Fatal("Entries returned internal slice")
	}
}

func TestTxnsOrder(t *testing.T) {
	l := Build([]Entry{entry(5, 1, true), entry(3, 2, false), entry(9, 3, false)})
	txns := l.Txns()
	want := []ids.Txn{5, 3, 9}
	for i := range want {
		if txns[i] != want[i] {
			t.Fatalf("Txns = %v", txns)
		}
	}
}

func TestSegmentOfAndEntryOf(t *testing.T) {
	l := Build([]Entry{entry(1, 1, false), entry(2, 2, true), entry(3, 3, false)})
	if got := l.SegmentOf(2); got != 1 {
		t.Fatalf("SegmentOf(2) = %d", got)
	}
	if got := l.SegmentOf(3); got != 2 {
		t.Fatalf("SegmentOf(3) = %d", got)
	}
	if got := l.SegmentOf(99); got != -1 {
		t.Fatalf("SegmentOf(missing) = %d", got)
	}
	e, ok := l.EntryOf(2)
	if !ok || !e.Write || e.Client != 2 {
		t.Fatalf("EntryOf(2) = %+v, %v", e, ok)
	}
	if _, ok := l.EntryOf(99); ok {
		t.Fatal("EntryOf(missing) ok")
	}
}

func TestStringMarkers(t *testing.T) {
	l := Build([]Entry{entry(1, 1, false), entry(2, 2, false), entry(3, 3, true)})
	s := l.String()
	if !strings.Contains(s, "(T1@C1:R T2@C2:R)") || !strings.Contains(s, "| T3@C3:W") {
		t.Fatalf("String = %q", s)
	}
}

func TestValidateCatchesDuplicates(t *testing.T) {
	l := Build([]Entry{entry(1, 1, false), entry(1, 2, true)})
	if err := l.Validate(); err == nil {
		t.Fatal("duplicate txn not caught")
	}
}

// Property: for any request sequence, Build yields a valid list whose flat
// entries equal the input, whose write segments are singletons, and whose
// read segments are maximal.
func TestBuildProperty(t *testing.T) {
	f := func(raw []struct {
		T uint16
		C uint8
		W bool
	}) bool {
		seen := map[ids.Txn]bool{}
		var in []Entry
		for _, r := range raw {
			txn := ids.Txn(r.T) + 1
			if seen[txn] {
				continue
			}
			seen[txn] = true
			in = append(in, entry(txn, ids.Client(r.C), r.W))
		}
		l := Build(in)
		if l.Validate() != nil {
			return false
		}
		got := l.Entries()
		if len(got) != len(in) {
			return false
		}
		for i := range in {
			if got[i] != in[i] {
				return false
			}
		}
		// Segment walk must reproduce the flat order.
		var walked []Entry
		for i := 0; i < l.NumSegments(); i++ {
			walked = append(walked, l.Segment(i).Entries...)
		}
		for i := range in {
			if walked[i] != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentsAreClippedWindows pins the storage Build promises: segments
// are windows onto the one entries array, clipped so that an append
// through one cannot reach its neighbour, and the whole list costs four
// allocations however many segments it has.
func TestSegmentsAreClippedWindows(t *testing.T) {
	in := []Entry{entry(1, 1, false), entry(2, 2, false), entry(3, 3, true), entry(4, 4, false)}
	l := Build(in)
	group := l.Segment(0).Entries
	if len(group) != 2 || cap(group) != 2 {
		t.Fatalf("read group has len %d cap %d, want 2 and 2", len(group), cap(group))
	}
	_ = append(group, entry(9, 9, false))
	if got := l.Segment(1).Entries[0]; got != in[2] {
		t.Fatalf("append through the read group overwrote the writer: %v", got)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { Build(in) }); n > 4 {
		t.Errorf("Build: %v allocs per run, want at most 4 (list, entries, transactions, segments)", n)
	}
}
