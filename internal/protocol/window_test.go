package protocol

import (
	"reflect"
	"testing"

	"repro/internal/ids"
)

// wreq is shorthand for a window request in tests.
func wreq(txn ids.Txn, client ids.Client, write bool) WindowRequest {
	return WindowRequest{Txn: txn, Client: client, Write: write}
}

func txnsOf(plan *FlightPlan) []ids.Txn { return plan.List.Txns() }

func TestPlanWindowGroupsReaders(t *testing.T) {
	d := NewDispatcher(WindowOptions{})
	plan, victims, rest := d.PlanWindow(1, []WindowRequest{
		wreq(1, 0, true), wreq(2, 1, false), wreq(3, 2, true), wreq(4, 3, false),
	})
	if len(victims) != 0 || len(rest) != 0 {
		t.Fatalf("victims = %v, rest = %v, want none", victims, rest)
	}
	// With an empty precedence graph, readers group ahead of writers in
	// arrival order: [2 4] then 1 then 3.
	want := []ids.Txn{2, 4, 1, 3}
	if got := txnsOf(plan); !reflect.DeepEqual(got, want) {
		t.Errorf("window order = %v, want %v", got, want)
	}
	if plan.List.NumSegments() != 3 {
		t.Errorf("segments = %d, want 3 (read group + two writers)", plan.List.NumSegments())
	}
	// The chain edges of the dispatched list are installed: T1 waits for
	// both readers, T3 waits for T1.
	if d.Waits.Edges() != 3 {
		t.Errorf("chain edges = %d, want 3", d.Waits.Edges())
	}
}

func TestPlanWindowFIFOAndCap(t *testing.T) {
	d := NewDispatcher(WindowOptions{NoAvoidance: true, FIFOWindows: true, MaxForwardList: 2})
	plan, _, rest := d.PlanWindow(1, []WindowRequest{
		wreq(1, 0, true), wreq(2, 1, false), wreq(3, 2, false),
	})
	if got, want := txnsOf(plan), []ids.Txn{1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("FIFO capped window = %v, want %v", got, want)
	}
	if len(rest) != 1 || rest[0].Txn != 3 {
		t.Errorf("rest = %v, want [T3]", rest)
	}
}

// TestPlanWindowRespectsPrecedence records one forward-list order and
// checks that a later window on another item orders the same pair
// consistently even when arrival order is reversed — the paper's
// deadlock-avoidance rule.
func TestPlanWindowRespectsPrecedence(t *testing.T) {
	d := NewDispatcher(WindowOptions{})
	plan1, _, _ := d.PlanWindow(1, []WindowRequest{wreq(1, 0, true), wreq(2, 1, true)})
	if got, want := txnsOf(plan1), []ids.Txn{1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("first window = %v, want %v", got, want)
	}
	plan2, victims, _ := d.PlanWindow(2, []WindowRequest{wreq(2, 1, true), wreq(1, 0, true)})
	if len(victims) != 0 {
		t.Fatalf("consistent reorder should not need victims, got %v", victims)
	}
	if got, want := txnsOf(plan2), []ids.Txn{1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("second window = %v, want %v (precedence order, not arrival)", got, want)
	}
}

// TestPlanWindowAbortsOnCrossItemCycle wires a wait-for edge that makes
// the window's chain edges close a cycle and checks the latest-in-order
// member dies.
func TestPlanWindowAbortsOnCrossItemCycle(t *testing.T) {
	d := NewDispatcher(WindowOptions{NoAvoidance: true, FIFOWindows: true})
	// T1 (a reader elsewhere) waits for T2 outside this window.
	d.Waits.AddEdge(1, 2)
	// Window [T1 write, T2 write] chains T2 -> T1, closing T2 -> T1 -> T2.
	plan, victims, _ := d.PlanWindow(1, []WindowRequest{wreq(1, 0, true), wreq(2, 1, true)})
	if len(victims) != 1 || victims[0].Txn != 2 {
		t.Fatalf("victims = %v, want [T2] (latest in order)", victims)
	}
	if got, want := txnsOf(plan), []ids.Txn{1}; !reflect.DeepEqual(got, want) {
		t.Errorf("surviving window = %v, want %v", got, want)
	}
	// Only the external edge remains.
	if d.Waits.Edges() != 1 {
		t.Errorf("edges after dispatch = %d, want 1 (the external edge)", d.Waits.Edges())
	}
}

func TestFlightBlockAndMemberDone(t *testing.T) {
	d := NewDispatcher(WindowOptions{MR1W: true})
	plan, _, _ := d.PlanWindow(1, []WindowRequest{
		wreq(1, 0, false), wreq(2, 1, false), wreq(3, 2, true),
	})
	f := NewFlight(plan)
	base := d.Waits.Edges() // chain edges: T3 waits T1 and T2

	edges := d.BlockOnFlight(f, 9)
	if want := []ids.Txn{1, 2, 3}; !reflect.DeepEqual(edges, want) {
		t.Fatalf("block edges = %v, want %v", edges, want)
	}
	if d.Waits.Edges() != base+3 {
		t.Errorf("edges after block = %d, want %d", d.Waits.Edges(), base+3)
	}
	// T1 finishes: the chain edge T3 -> T1 drops, T9's edges stay.
	d.MemberDone(f, 1)
	if got := f.Unfinished(); !reflect.DeepEqual(got, []ids.Txn{2, 3}) {
		t.Errorf("unfinished = %v, want [2 3]", got)
	}
	if d.Waits.Edges() != base+2 {
		t.Errorf("edges after member done = %d, want %d", d.Waits.Edges(), base+2)
	}
	d.Unblock(9, edges)
	d.MemberDone(f, 2)
	d.MemberDone(f, 3)
	if d.Waits.Edges() != 0 {
		t.Errorf("edges after all done = %d, want 0", d.Waits.Edges())
	}

	// Extras join unfinished tracking but have no chain edges.
	f2 := NewFlight(plan)
	f2.AddExtra(7)
	if got := f2.Unfinished(); !reflect.DeepEqual(got, []ids.Txn{1, 2, 3, 7}) {
		t.Errorf("unfinished with extra = %v", got)
	}
	if !d.MemberDone(f2, 7) || d.MemberDone(f2, 7) || d.MemberDone(f2, 8) {
		t.Error("MemberDone must report true once for an extra, false for a repeat or a stranger")
	}
	if got := f2.Unfinished(); !reflect.DeepEqual(got, []ids.Txn{1, 2, 3}) {
		t.Errorf("unfinished after the extra finished = %v", got)
	}
}

func TestFlightPlanRouting(t *testing.T) {
	// Plan: [r1 r2] [w3] [r4] with MR1W. The precedence constraint keeps
	// reader T4 behind writer T3 so the grouping pass cannot hoist it.
	d := NewDispatcher(WindowOptions{MR1W: true})
	d.Order.Constrain(3, 4)
	plan, _, _ := d.PlanWindow(5, []WindowRequest{
		wreq(3, 2, true), wreq(1, 0, false), wreq(2, 1, false), wreq(4, 3, false),
	})
	if got, want := txnsOf(plan), []ids.Txn{1, 2, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("plan order = %v, want %v", got, want)
	}

	// Segment 0 (read group): both readers plus the MR1W companion copy to
	// the successor writer.
	rec := plan.Recipients(0)
	if len(rec) != 3 || rec[0].Txn != 1 || rec[1].Txn != 2 || rec[2].Txn != 3 {
		t.Errorf("recipients(0) = %v, want readers then writer companion", rec)
	}
	if got := plan.RelWaitFor(1); got != 2 {
		t.Errorf("RelWaitFor(writer) = %d, want 2", got)
	}
	if c, w := plan.ReleaseTarget(0); c != 2 || w != 3 {
		t.Errorf("ReleaseTarget(0) = (%v, %v), want writer T3 at C2", c, w)
	}

	// Segment 2 (final read group after a writer): release to the server,
	// home return rides the writer's dispatch, returns = readers + data.
	if c, w := plan.ReleaseTarget(2); c != ids.Server || w != ids.None {
		t.Errorf("ReleaseTarget(final) = (%v, %v), want server", c, w)
	}
	if !plan.HomeReturnOnDispatch(2) {
		t.Error("final read group dispatched by a writer should return data home")
	}
	if plan.HomeReturnOnDispatch(1) {
		t.Error("writer segment is not a home-return dispatch")
	}
	if got := plan.FinalReturns(); got != 2 {
		t.Errorf("FinalReturns = %d, want 2 (one reader release + data return)", got)
	}

	// A final-writer plan returns exactly one message.
	plan2, _, _ := d.PlanWindow(6, []WindowRequest{wreq(7, 0, false), wreq(8, 1, true)})
	if got := plan2.FinalReturns(); got != 1 {
		t.Errorf("final-writer FinalReturns = %d, want 1", got)
	}
	if got := plan2.RelWaitFor(1); got != 1 {
		t.Errorf("RelWaitFor(final writer) = %d, want 1", got)
	}
	// A server-dispatched final read group sends no separate home return.
	plan3, _, _ := d.PlanWindow(7, []WindowRequest{wreq(9, 0, false)})
	if plan3.HomeReturnOnDispatch(0) {
		t.Error("server-dispatched read group has no home-return message")
	}
	if got := plan3.FinalReturns(); got != 1 {
		t.Errorf("lone-reader FinalReturns = %d, want 1", got)
	}
}

// TestWindowSteadyStateAllocs bounds what closing an 8-request window and
// walking its flight to completion allocates once the dispatcher's scratch
// and both graphs have seen their working set: the order, the list (four
// objects), the plan and the flight (two).
func TestWindowSteadyStateAllocs(t *testing.T) {
	d := NewDispatcher(WindowOptions{MR1W: true})
	reqs := make([]WindowRequest, 8)
	next := 0
	window := func() {
		base := ids.Txn(next*8 + 1)
		next++
		for j := range reqs {
			reqs[j] = wreq(base+ids.Txn(j), ids.Client(j), j%3 == 0)
		}
		plan, victims, rest := d.PlanWindow(1, reqs)
		if plan == nil || len(victims) != 0 || len(rest) != 0 {
			t.Fatalf("plan %v victims %v rest %v", plan, victims, rest)
		}
		f := NewFlight(plan)
		for _, txn := range plan.List.Txns() {
			d.MemberDone(f, txn)
			d.Order.Remove(txn)
		}
	}
	for i := 0; i < 8; i++ {
		window()
	}
	if n := testing.AllocsPerRun(100, window); n > 8 {
		t.Errorf("window: %v allocs per run, want at most 8", n)
	}
	if d.Waits.Edges() != 0 || d.Order.Size() != 0 {
		t.Errorf("graphs not empty after every flight finished: %d edges, %d nodes", d.Waits.Edges(), d.Order.Size())
	}
}
