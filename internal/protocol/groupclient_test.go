package protocol

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fwdlist"
	"repro/internal/ids"
)

// clientPlan builds a flight plan for item from a forward list written as
// "r1 r2 w3": reader T1 at C1, reader T2 at C2, writer T3 at C3.
func clientPlan(item ids.Item, mr1w bool, list string) *FlightPlan {
	var entries []fwdlist.Entry
	for _, f := range strings.Fields(list) {
		var n int
		fmt.Sscan(f[1:], &n)
		entries = append(entries, fwdlist.Entry{Txn: ids.Txn(n), Client: ids.Client(n), Write: f[0] == 'w'})
	}
	return &FlightPlan{Item: item, List: fwdlist.Build(entries), MR1W: mr1w}
}

// clientCopy is the item under plan at version ver. Its value is ten times
// the version, so an unchanged copy never looks like an installed one (a
// writer installs its id as both).
func clientCopy(plan *FlightPlan, ver ids.Txn) GroupCopy {
	return GroupCopy{Plan: plan, Version: ver, Value: 10 * int64(ver)}
}

// clientLog renders actions as "granted x0=T9/90", "done x0",
// "release x0=T9/90 to T3@C3", "data x0=T1/1 to T2@C2", "home x0=T1/1".
func clientLog(acts []ClientAction) []string {
	var out []string
	for _, a := range acts {
		c := fmt.Sprintf("%v=%v/%d", a.Plan.Item, a.Version, a.Value)
		to := fmt.Sprintf("%v@%v", a.To, a.Client)
		switch a.Kind {
		case ClientGranted:
			out = append(out, "granted "+c)
		case ClientDone:
			out = append(out, fmt.Sprintf("done %v", a.Plan.Item))
		case ClientRelease:
			if a.To == ids.None {
				to = a.Client.String()
			}
			out = append(out, "release "+c+" to "+to)
		case ClientData:
			out = append(out, "data "+c+" to "+to)
		case ClientHome:
			out = append(out, "home "+c)
		}
	}
	return out
}

// clientStep is one event at the transaction under test and the exact
// actions it must produce, in order.
type clientStep struct {
	what string
	do   func(c *GroupClient) []ClientAction
	want []string
	ok   func(c *GroupClient) bool // a probe between events, instead of do
}

func onData(d GroupCopy, want ...string) clientStep {
	return clientStep{what: "data", do: func(c *GroupClient) []ClientAction { return c.Data(d, nil) }, want: want}
}

func onRelease(d GroupCopy, want ...string) clientStep {
	return clientStep{what: "release", do: func(c *GroupClient) []ClientAction { return c.Release(d, nil) }, want: want}
}

func onCommit(want ...string) clientStep {
	return clientStep{what: "commit", do: func(c *GroupClient) []ClientAction { return c.Commit(nil) }, want: want}
}

func onAbort(want ...string) clientStep {
	return clientStep{what: "abort", do: func(c *GroupClient) []ClientAction { return c.Abort(nil) }, want: want}
}

func onDoom() clientStep {
	return clientStep{what: "doom", do: func(c *GroupClient) []ClientAction { c.Doom(); return nil }}
}

// settled asserts Settled and HeldCount between events.
func settled(want bool, held int) clientStep {
	return clientStep{ok: func(c *GroupClient) bool { return c.Settled() == want && c.HeldCount() == held }}
}

// TestGroupClientRules states the clients' side of g-2PL one rule a row:
// paper §3.2 (a finished or aborted client forwards the item down the
// forward list, unchanged if it aborted) and §3.4 (an MR1W writer withholds
// every update until all reader releases are in).
func TestGroupClientRules(t *testing.T) {
	var (
		rrw   = clientPlan(0, true, "r1 r2 w3")       // readers then a writer
		wrr   = clientPlan(0, true, "w1 r2 r3")       // a writer then a final read group
		wrrw  = clientPlan(0, true, "w1 r2 r3 w4")    // MR1W: w4 travels with r2 r3
		ww    = clientPlan(0, true, "w1 w2")          // serial writers
		x1    = clientPlan(1, true, "r5 r6 w3")       // a second item for T3
		x2    = clientPlan(2, true, "w3")             // a third, T3 alone
		basic = clientPlan(0, false, "w1 r2 r3 w4")   // MR1W off
		rr    = clientPlan(0, true, "r1 r2")          // one read group: extras may join
		mid   = clientPlan(0, true, "w1 r2 w3 r4 w5") // T3 between two read groups
	)
	cases := []struct {
		name  string
		txn   ids.Txn
		steps []clientStep
	}{
		{"a reader releases to the next writer", 1, []clientStep{
			onData(clientCopy(rrw, 9), "granted x0=T9/90"),
			settled(false, 1),
			onCommit("done x0", "release x0=T9/90 to T3@C3"),
			settled(true, 0),
		}},
		{"a final read group releases to the server", 3, []clientStep{
			onData(clientCopy(wrr, 1), "granted x0=T1/10"),
			onCommit("done x0", "release x0=T1/10 to server"),
		}},
		{"a committed writer installs its id as version and value", 1, []clientStep{
			onData(clientCopy(ww, 9), "granted x0=T9/90"),
			onCommit("done x0", "data x0=T1/1 to T2@C2"),
		}},
		{"the last writer sends the item home", 2, []clientStep{
			onData(clientCopy(ww, 1), "granted x0=T1/10"),
			onCommit("done x0", "home x0=T2/2"),
		}},
		{"a writer dispatches a read group and its MR1W companion", 1, []clientStep{
			onData(clientCopy(wrrw, 9), "granted x0=T9/90"),
			onCommit("done x0", "data x0=T1/1 to T2@C2", "data x0=T1/1 to T3@C3", "data x0=T1/1 to T4@C4"),
		}},
		{"a final read group's dispatch sends the item home alongside", 1, []clientStep{
			onData(clientCopy(wrr, 9), "granted x0=T9/90"),
			onCommit("done x0", "data x0=T1/1 to T2@C2", "data x0=T1/1 to T3@C3", "home x0=T1/1"),
		}},
		{"an aborted writer forwards unchanged", 1, []clientStep{
			onData(clientCopy(ww, 9), "granted x0=T9/90"),
			onAbort("done x0", "data x0=T9/90 to T2@C2"),
			settled(true, 0),
		}},
		{"the MR1W gate holds all of a writer's forwards until the last gated item clears", 3, []clientStep{
			onData(clientCopy(rrw, 9), "granted x0=T9/90"), // early copy, r1 r2 still reading
			onData(clientCopy(x1, 8), "granted x1=T8/80"),
			onData(clientCopy(x2, 7), "granted x2=T7/70"), // ungated, but held back too
			onRelease(clientCopy(rrw, 9)),
			onCommit(), // x0 owes one release, x1 two
			onRelease(clientCopy(x1, 8)),
			onRelease(clientCopy(rrw, 9)), // x0 clears; x1 still gates everything
			settled(false, 0),
			onRelease(clientCopy(x1, 8),
				"done x0", "home x0=T3/3", "done x1", "home x1=T3/3", "done x2", "home x2=T3/3"),
			settled(true, 0),
		}},
		{"releases in before commit leave no gate", 3, []clientStep{
			onData(clientCopy(rrw, 9), "granted x0=T9/90"),
			onRelease(clientCopy(rrw, 9)),
			onRelease(clientCopy(rrw, 9)),
			onCommit("done x0", "home x0=T3/3"),
		}},
		{"an aborted MR1W writer still gathers its releases, item by item", 3, []clientStep{
			onData(clientCopy(rrw, 9), "granted x0=T9/90"),
			onData(clientCopy(x2, 7), "granted x2=T7/70"),
			onAbort("done x2", "home x2=T7/70"), // x0 waits for r1 r2, x2 does not wait for x0
			onRelease(clientCopy(rrw, 9)),
			onRelease(clientCopy(rrw, 9), "done x0", "home x0=T9/90"),
			settled(true, 0),
		}},
		{"basic mode: the last release is the delivery, a later copy a duplicate", 4, []clientStep{
			onRelease(clientCopy(basic, 1)),
			settled(false, 0),
			onRelease(clientCopy(basic, 1), "granted x0=T1/10"),
			settled(false, 1),
			onData(clientCopy(basic, 1)),
			onCommit("done x0", "home x0=T4/4"),
			settled(true, 0),
		}},
		{"MR1W: releases completing before the data are the delivery", 4, []clientStep{
			onRelease(clientCopy(wrrw, 1)),
			onRelease(clientCopy(wrrw, 1), "granted x0=T1/10"),
			onCommit("done x0", "home x0=T4/4"),
			settled(false, 0), // the writer's own copy is still on its link
			onData(clientCopy(wrrw, 1)),
			settled(true, 0),
		}},
		{"MR1W: the early copy is the delivery, the releases only gate", 4, []clientStep{
			onRelease(clientCopy(wrrw, 1)),
			onData(clientCopy(wrrw, 1), "granted x0=T1/10"),
			onCommit(),
			onRelease(clientCopy(wrrw, 1), "done x0", "home x0=T4/4"),
		}},
		{"late data for a forgotten transaction forwards at once", 2, []clientStep{
			onAbort(), // the stub: nothing held
			settled(true, 0),
			onData(clientCopy(wrr, 1), "done x0", "release x0=T1/10 to server"),
			settled(true, 0),
		}},
		{"a forgotten writer between read groups waits for its releases, then dispatches unchanged", 3, []clientStep{
			onAbort(),
			onData(clientCopy(mid, 1)),
			settled(false, 0),
			onRelease(clientCopy(mid, 1), "done x0", "data x0=T1/10 to T4@C4", "data x0=T1/10 to T5@C5"),
		}},
		{"a read-expansion extra releases straight to the server", 7, []clientStep{
			onData(clientCopy(rr, 9), "granted x0=T9/90"),
			onCommit("done x0", "release x0=T9/90 to server"),
		}},
		{"a doomed transaction keeps what it holds until its notice, and passes on what arrives", 3, []clientStep{
			onData(clientCopy(x2, 7), "granted x2=T7/70"),
			onDoom(),
			onData(clientCopy(rrw, 9)), // owes r1 r2
			onRelease(clientCopy(rrw, 9)),
			onRelease(clientCopy(rrw, 9), "done x0", "home x0=T9/90"),
			settled(false, 1),
			onAbort("done x2", "home x2=T7/70"),
			settled(true, 0),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := GroupClient{Txn: tc.txn}
			for i, s := range tc.steps {
				if s.ok != nil {
					if !s.ok(&c) {
						t.Fatalf("step %d: settled=%v held=%d", i, c.Settled(), c.HeldCount())
					}
					continue
				}
				if got := clientLog(s.do(&c)); !reflect.DeepEqual(got, s.want) {
					t.Fatalf("step %d (%s): actions %q, want %q", i, s.what, got, s.want)
				}
			}
		})
	}
}

// TestGroupClientReusesActionSlice pins the calling convention: actions are
// appended to the slice passed in.
func TestGroupClientReusesActionSlice(t *testing.T) {
	c := GroupClient{Txn: 1}
	buf := make([]ClientAction, 0, 8)
	acts := c.Data(clientCopy(clientPlan(0, true, "w1 w2"), 9), buf[:0])
	acts = c.Commit(acts[:0])
	if len(acts) != 2 || &acts[0] != &buf[:1][0] {
		t.Fatalf("Commit returned %d actions in a fresh slice, want 2 in the caller's", len(acts))
	}
}
