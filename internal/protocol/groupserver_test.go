package protocol

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/ids"
	"repro/internal/stats"
)

// groupRig drives a GroupServer the way the live server does: a ready
// window dispatches at once, and every action is logged as a short string
// ("data T1 x0", "abort T2", "abort! T3" for a dispatch-time victim).
type groupRig struct {
	g    *GroupServer
	held map[ids.Txn]int // the omniscient driver's view, nil for none
	log  []string
}

func newGroupRig(opts WindowOptions, policy DeadlockPolicy, victim VictimPolicy, omniscient bool) *groupRig {
	r := &groupRig{}
	var info VictimInfo
	if omniscient {
		r.held = make(map[ids.Txn]int)
		info = func(id ids.Txn) (bool, int) { return true, r.held[id] }
	}
	r.g = NewGroupServer(opts, policy, victim, info)
	return r
}

func (r *groupRig) apply(acts []GroupAction) {
	for _, a := range acts {
		switch a.Kind {
		case GroupData:
			r.log = append(r.log, fmt.Sprintf("data %v %v", a.Txn, a.Item))
		case GroupAbort:
			tag := "abort"
			if a.AtDispatch {
				tag = "abort!"
			}
			r.log = append(r.log, fmt.Sprintf("%s %v", tag, a.Txn))
		case GroupReady:
			_, next := r.g.Dispatch(a.Item)
			r.apply(next)
		}
	}
}

// req files a request for txn (client = txn, ts = txn unless given).
func (r *groupRig) req(txn ids.Txn, item ids.Item, write bool, ts ...ids.Txn) {
	q := GroupRequest{Txn: txn, Client: ids.Client(txn), Item: item, Write: write}
	if len(ts) > 0 {
		q.Ts = ts[0]
	}
	r.apply(r.g.Request(q))
}

// take returns and clears the action log.
func (r *groupRig) take() []string {
	out := r.log
	r.log = nil
	return out
}

func (r *groupRig) want(t *testing.T, what string, want ...string) {
	t.Helper()
	if got := r.take(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: actions %q, want %q", what, got, want)
	}
}

func (r *groupRig) wantFootprint(t *testing.T, what string, waits, order, txns int) {
	t.Helper()
	w, o, n := r.g.Footprint()
	if w != waits || o != order || n != txns {
		t.Fatalf("%s: footprint waits=%d order=%d txns=%d, want %d/%d/%d", what, w, o, n, waits, order, txns)
	}
}

// TestGroupServerBlockPointPolicies walks the one block point — a request
// arriving while the item is away — under all four policies, from both
// sides of the age order.
func TestGroupServerBlockPointPolicies(t *testing.T) {
	cases := []struct {
		policy DeadlockPolicy
		older  bool // requester older than the flight member
		want   []string
		causes stats.AbortCauses
		queued bool // requester still waits afterwards
	}{
		{PolicyDetect, true, nil, stats.AbortCauses{}, true},
		{PolicyDetect, false, nil, stats.AbortCauses{}, true},
		{PolicyNoWait, true, []string{"abort T2"}, stats.AbortCauses{NoWait: 1}, false},
		{PolicyNoWait, false, []string{"abort T2"}, stats.AbortCauses{NoWait: 1}, false},
		{PolicyWaitDie, true, nil, stats.AbortCauses{}, true},
		{PolicyWaitDie, false, []string{"abort T2"}, stats.AbortCauses{Die: 1}, false},
		{PolicyWoundWait, true, []string{"abort T1"}, stats.AbortCauses{Wound: 1}, true},
		{PolicyWoundWait, false, nil, stats.AbortCauses{}, true},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%v/older=%v", c.policy, c.older), func(t *testing.T) {
			r := newGroupRig(WindowOptions{MR1W: true}, c.policy, VictimRequester, false)
			memberTs, reqTs := ids.Txn(10), ids.Txn(20)
			if c.older {
				memberTs, reqTs = 20, 10
			}
			r.req(1, 0, true, memberTs)
			r.want(t, "first request dispatches", "data T1 x0")
			r.req(2, 0, true, reqTs)
			r.want(t, "blocked request", c.want...)
			if got := r.g.Causes(); got != c.causes {
				t.Fatalf("causes %+v, want %+v", got, c.causes)
			}
			if queued := len(r.g.items[0].pending) == 1; queued != c.queued {
				t.Fatalf("requester queued = %v, want %v", queued, c.queued)
			}
			// The wounded holder still forwards: the flight completes and the
			// waiter (if any) gets the item.
			r.g.Done(0, 1)
			r.apply(r.g.Return(0))
			if c.queued {
				r.want(t, "window close", "data T2 x0")
				r.g.Done(0, 2)
				r.apply(r.g.Return(0))
			}
			r.wantFootprint(t, "quiescence", 0, 0, 0)
			if !r.g.Quiet() {
				t.Fatal("server not quiet")
			}
		})
	}
}

// TestGroupServerCycleVictims closes the classic two-item cycle and checks
// who dies: the requester by default; under VictimLeastHeld the live member
// holding least, by the driver's count — and, without a driver view, the
// requester again.
func TestGroupServerCycleVictims(t *testing.T) {
	cases := []struct {
		name       string
		victim     VictimPolicy
		omniscient bool
		held       map[ids.Txn]int
		want       string
	}{
		{"requester", VictimRequester, true, map[ids.Txn]int{1: 1, 2: 3}, "abort T2"},
		{"leastheld", VictimLeastHeld, true, map[ids.Txn]int{1: 1, 2: 3}, "abort T1"},
		{"leastheld-tie-youngest", VictimLeastHeld, true, map[ids.Txn]int{1: 2, 2: 2}, "abort T2"},
		{"leastheld-blind", VictimLeastHeld, false, nil, "abort T2"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := newGroupRig(WindowOptions{MR1W: true}, PolicyDetect, c.victim, c.omniscient)
			for id, n := range c.held {
				r.held[id] = n
			}
			r.req(1, 0, true)
			r.req(2, 1, true)
			r.take()
			r.req(1, 1, true) // T1 waits for T2
			r.want(t, "first wait")
			r.req(2, 0, true) // T2 waits for T1: cycle
			r.want(t, "cycle", c.want)
			if got := r.g.Causes(); got != (stats.AbortCauses{Deadlock: 1}) {
				t.Fatalf("causes %+v", got)
			}
			if r.g.disp.Waits.HasCycle() {
				t.Fatal("cycle survived its victim")
			}
			for id, rec := range r.g.txns {
				if rec.dead && rec.at != nil {
					t.Fatalf("victim %v still has a queued request", id)
				}
			}
		})
	}
}

// TestGroupServerCapRemainder pins re-windowing under the length cap: the
// remainder waits on the flight that left without it, and forms the next
// window when that flight comes home.
func TestGroupServerCapRemainder(t *testing.T) {
	g := NewGroupServer(WindowOptions{MR1W: true, MaxForwardList: 2}, PolicyDetect, VictimRequester, nil)
	// The window is ready once, when its first request arrives.
	for txn := ids.Txn(1); txn <= 3; txn++ {
		acts := g.Request(GroupRequest{Txn: txn, Client: ids.Client(txn), Item: 0, Write: true})
		if ready := len(acts) == 1 && acts[0].Kind == GroupReady; ready != (txn == 1) || len(acts) > 1 {
			t.Fatalf("request %v on a resting item: %+v", txn, acts)
		}
	}
	plan, acts := g.Dispatch(0)
	if got := txnsOf(plan); !reflect.DeepEqual(got, []ids.Txn{1, 2}) {
		t.Fatalf("capped plan %v, want [T1 T2]", got)
	}
	if len(acts) != 1 || acts[0].Kind != GroupData || acts[0].Txn != 1 || acts[0].Plan != plan {
		t.Fatalf("dispatch actions %+v, want data to T1 under the plan", acts)
	}
	it := g.items[0]
	if len(it.pending) != 1 || it.pending[0].Txn != 3 || !reflect.DeepEqual(it.pending[0].edges, []ids.Txn{1, 2}) {
		t.Fatalf("remainder %+v, want T3 waiting for [T1 T2]", it.pending)
	}
	if p, _ := g.Dispatch(0); p != nil {
		t.Fatal("an item in flight dispatched again")
	}
	g.Done(0, 1)
	g.Done(0, 2)
	acts = g.Return(0)
	if len(acts) != 1 || acts[0].Kind != GroupReady || len(it.pending[0].edges) != 0 {
		t.Fatalf("window close: %+v edges %v, want GroupReady and no stored edges", acts, it.pending[0].edges)
	}
	plan, _ = g.Dispatch(0)
	if got := txnsOf(plan); !reflect.DeepEqual(got, []ids.Txn{3}) {
		t.Fatalf("second plan %v, want [T3]", got)
	}
	g.Done(0, 3)
	g.Return(0)
	if w, o, n := g.Footprint(); w+o+n != 0 || !g.Quiet() {
		t.Fatalf("footprint %d/%d/%d after everything finished", w, o, n)
	}
}

// TestGroupServerCapRemainderJudged: a request the cap leaves behind
// blocks on the new flight, so the policy judges it there like any late
// arrival — and the flight's data still goes out after the notice.
func TestGroupServerCapRemainderJudged(t *testing.T) {
	g := NewGroupServer(WindowOptions{MR1W: true, MaxForwardList: 1, FIFOWindows: true}, PolicyNoWait, VictimRequester, nil)
	g.Request(GroupRequest{Txn: 1, Client: 1, Item: 0, Write: true})
	g.Request(GroupRequest{Txn: 2, Client: 2, Item: 0, Write: true})
	g.Request(GroupRequest{Txn: 3, Client: 3, Item: 0, Write: true})
	_, acts := g.Dispatch(0)
	var got []string
	for _, a := range acts {
		got = append(got, fmt.Sprintf("%d %v", a.Kind, a.Txn))
	}
	want := []string{
		fmt.Sprintf("%d T2", GroupAbort), fmt.Sprintf("%d T3", GroupAbort), fmt.Sprintf("%d T1", GroupData),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("actions %v, want %v", got, want)
	}
	if c := g.Causes(); c.NoWait != 2 {
		t.Fatalf("causes %+v, want two no-wait aborts", c)
	}
}

// TestGroupServerReadExpansion: late reads join a single read group in
// flight, each adds a return the window waits for and an edge every
// waiting request must respect.
func TestGroupServerReadExpansion(t *testing.T) {
	r := newGroupRig(WindowOptions{MR1W: true}, PolicyDetect, VictimRequester, false)
	read := func(txn ids.Txn) GroupRequest {
		return GroupRequest{Txn: txn, Client: ids.Client(txn), Item: 0}
	}
	if _, ok := r.g.Expand(read(1)); ok {
		t.Fatal("expanded into an item at rest")
	}
	r.req(1, 0, false)
	r.want(t, "first reader", "data T1 x0")
	if _, ok := r.g.Expand(GroupRequest{Txn: 2, Client: 2, Item: 0, Write: true}); ok {
		t.Fatal("a write expanded into a read group")
	}
	acts, ok := r.g.Expand(read(2))
	if !ok {
		t.Fatal("late read refused")
	}
	r.apply(acts)
	r.want(t, "late reader", "data T2 x0")
	r.req(3, 0, true) // a writer waits for both
	if got := r.g.items[0].pending[0].edges; !reflect.DeepEqual(got, []ids.Txn{1, 2}) {
		t.Fatalf("writer waits for %v, want [T1 T2]", got)
	}
	acts, ok = r.g.Expand(read(4))
	if !ok {
		t.Fatal("second late read refused")
	}
	r.apply(acts)
	r.want(t, "second late reader", "data T4 x0")
	if got := r.g.items[0].pending[0].edges; !reflect.DeepEqual(got, []ids.Txn{1, 2, 4}) {
		t.Fatalf("writer waits for %v, want [T1 T2 T4]", got)
	}
	// Three releases close the window; two do not.
	for i, txn := range []ids.Txn{2, 1, 4} {
		r.g.Done(0, txn)
		r.apply(r.g.Return(0))
		if i < 2 {
			r.want(t, "window still open")
		}
	}
	r.want(t, "window closed", "data T3 x0")
	if _, ok := r.g.Expand(read(5)); ok {
		t.Fatal("expanded into a writer's flight")
	}
}

// TestGroupServerRetiresWithoutFinish is the live server's lifecycle: no
// commit message ever arrives, a straggling done report lands after the
// flight it belongs to closed, and the transaction still leaves every
// table with its last membership.
func TestGroupServerRetiresWithoutFinish(t *testing.T) {
	r := newGroupRig(WindowOptions{MR1W: true}, PolicyDetect, VictimRequester, false)
	r.req(1, 0, false)
	r.req(2, 0, true) // waits for T1, constrained after it
	r.req(1, 1, true)
	r.take()
	r.wantFootprint(t, "T1 holds two items, T2 waits", 1, 2, 2)
	r.g.Done(0, 1)
	r.apply(r.g.Return(0))
	r.want(t, "T2 gets the item", "data T2 x0")
	r.wantFootprint(t, "T1 still on x1's flight, still ordered before T2", 0, 2, 2)
	r.apply(r.g.Return(1)) // the data beats T1's done report home
	r.wantFootprint(t, "x1 home: T1 retired by implication", 0, 0, 1)
	r.g.Done(1, 1) // the straggler
	r.g.Done(0, 2)
	r.apply(r.g.Return(0))
	r.wantFootprint(t, "quiescence", 0, 0, 0)
}

// TestGroupServerFinishAndLateRequest is the engine's lifecycle. Finish
// takes a committed transaction out of the policies' sight while an MR1W
// gate still holds its forwards back; and a victim's request that was
// already on the wire queues and dispatches unjudged — its client passes
// the data straight on — without a second abort notice.
func TestGroupServerFinishAndLateRequest(t *testing.T) {
	r := newGroupRig(WindowOptions{MR1W: true}, PolicyWoundWait, VictimRequester, true)
	r.req(5, 0, true, 50)
	r.take()
	r.g.Finish(5) // committed, forwards pending
	r.req(6, 0, true, 10)
	r.want(t, "older requester meets a committed member") // no wound
	if c := r.g.Causes(); c.Wound != 0 {
		t.Fatalf("wounded a finished transaction: %+v", c)
	}

	r.req(7, 1, true, 70)
	r.take()
	r.req(8, 1, true, 20)
	r.want(t, "older requester wounds the holder", "abort T7")
	// T7's next request left its client before the notice arrived.
	r.req(7, 0, true, 70)
	r.want(t, "late request of a dead transaction")
	if got := len(r.g.items[0].pending); got != 2 {
		t.Fatalf("x0 window holds %d requests, want T6 and T7's late one", got)
	}
	r.g.Done(0, 5)
	r.apply(r.g.Return(0))
	r.want(t, "x0 re-dispatches with the dead member on the list", "data T6 x0")
	r.g.Done(1, 7)
	r.apply(r.g.Return(1))
	r.want(t, "x1 goes to the wounder", "data T8 x1")
	r.g.Finish(6)
	r.g.Done(0, 6)
	r.g.Done(0, 7)
	r.apply(r.g.Return(0))
	r.g.Finish(8)
	r.g.Done(1, 8)
	r.apply(r.g.Return(1))
	r.want(t, "drain")
	r.wantFootprint(t, "quiescence", 0, 0, 0)
}
