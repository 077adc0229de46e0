package bench_test

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/engine"
	"repro/internal/fwdlist"
	"repro/internal/ids"
	"repro/internal/live"
	"repro/internal/lock"
	"repro/internal/netmodel"
	"repro/internal/prec"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/serial"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/wfg"
	wl "repro/internal/workload"
)

// coreDriver measures one layer in isolation: a single-threaded loop
// that feeds seeded inputs through one module's exported API. The timed
// loop runs with no recorder; a short second pass records one parent
// span per logical operation with a child span per call.
type coreDriver struct {
	op  string // logical operation: span name and trace source
	ops int    // timed operations at scale 1
	// on lists, space-separated, the workloads that cross the layer: the
	// driver runs in their traced runs and reports 0 in every other.
	on string
	// ns and allocs name the per-layer metrics the driver feeds: wall
	// nanoseconds and, unless "", allocations per unit of work.
	ns, allocs string
	// setup builds fresh state and returns the operation body and how
	// many units of work one operation does.
	setup func(seed uint64, scale float64) (body func(i int, tr *recorder), per float64)
}

// The workloads by the cores they cross.
const (
	onDES     = "des_s2pl des_g2pl des_shard"
	onLive    = "live_s2pl live_g2pl live_shard_wal live_faults"
	onS2PL    = "des_s2pl des_shard live_s2pl live_shard_wal live_faults" // LockServer, alone or under a Participant
	onG2PL    = "des_g2pl live_g2pl"
	onSharded = "des_shard live_shard_wal live_faults"
	onAll     = onDES + " " + onLive
)

func (d coreDriver) crossedBy(workload string) bool {
	return slices.Contains(strings.Fields(d.on), workload)
}

// tracedOps is how many operations a driver's span-recording pass makes.
const tracedOps = 200

// measure runs the driver's timed loop and traced pass and adds its
// metrics to out.
func (d coreDriver) measure(seed uint64, scale float64, file *traceFile, out map[string]float64) {
	n := scaled(d.ops, scale)
	body, per := d.setup(seed, scale)
	for i := 0; i < n/10; i++ { // grow maps and slices before timing
		body(i, nil)
	}
	wall, mallocs, _ := timed(func() {
		for i := n / 10; i < n/10+n; i++ {
			body(i, nil)
		}
	})
	units := float64(n) * per
	out[d.ns] = float64(wall) / units
	if d.allocs != "" {
		out[d.allocs] = float64(mallocs) / units
	}

	body, _ = d.setup(seed, scale)
	tr := file.recorder("core:" + d.op)
	for i := 0; i < min(n, tracedOps); i++ {
		tr.begin(d.op)
		body(i, tr)
		tr.end()
	}
}

// failf panics on a core answer the driver did not plan for: a driver
// that silently measured the wrong path would report a wrong number.
// Callers test the condition themselves, so the arguments are boxed only
// on the failing path and the timed loops stay free of harness
// allocations.
func failf(format string, args ...any) {
	panic("bench: " + fmt.Sprintf(format, args...))
}

func coreDrivers() []coreDriver {
	return []coreDriver{
		{op: "sim.kernel", on: onDES, ops: 400_000, ns: "sim.kernel.sched_fire_ns", allocs: "sim.kernel.allocs_per_event", setup: setupKernel},
		{op: "netmodel.send", on: onDES, ops: 400_000, ns: "netmodel.send_ns", setup: setupNetmodel},
		{op: "lock.acquire_release", on: onS2PL, ops: 200_000, ns: "lock.acquire_release_ns", setup: setupLockFree},
		{op: "lock.contended", on: onS2PL, ops: 20_000, ns: "lock.contended_ns", setup: setupLockChain},
		{op: "wfg.cycle", on: onS2PL, ops: 15_000, ns: "wfg.cycle_ns", setup: setupWFG},
		{op: "prec.order", on: onG2PL, ops: 10_000, ns: "prec.order_ns", setup: setupPrec},
		{op: "fwdlist.build", on: onG2PL, ops: 100_000, ns: "fwdlist.build_ns", setup: setupFwdlist},
		{op: "lockserver.grant", on: onS2PL, ops: 150_000, ns: "protocol.lockserver.grant_ns", allocs: "protocol.lockserver.grant_allocs", setup: setupGrant},
		{op: "lockserver.contended", on: onS2PL, ops: 40_000, ns: "protocol.lockserver.contended_ns", allocs: "protocol.lockserver.contended_allocs", setup: setupContended},
		{op: "dispatcher.window", on: onG2PL, ops: 8_000, ns: "protocol.dispatcher.window_ns", allocs: "protocol.dispatcher.window_allocs", setup: setupWindow},
		// No workload runs c-2PL. CacheServer shares LockServer's wait-for
		// graph and deadlock policies, so its driver rides with the workload
		// LockServer dominates.
		{op: "cache.recall", on: "des_s2pl", ops: 50_000, ns: "protocol.cache.recall_ns", allocs: "protocol.cache.recall_allocs", setup: setupRecall},
		{op: "twopc.round", on: onSharded, ops: 40_000, ns: "protocol.twopc.round_ns", allocs: "protocol.twopc.round_allocs", setup: setupTwoPCRound},
		{op: "twopc.onephase", on: onSharded, ops: 80_000, ns: "protocol.twopc.onephase_ns", setup: setupOnePhase},
		{op: "twopc.recover", on: "live_faults", ops: 30, ns: "protocol.twopc.recover_ns_per_round", setup: setupRecover},
		// The harness's own overheads are in every workload's numbers.
		{op: "workload.next", on: onAll, ops: 400_000, ns: "workload.next_ns", setup: setupWorkloadNext},
		{op: "stats.sample.add", on: onAll, ops: 1_000_000, ns: "stats.sample.add_ns", setup: setupSampleAdd},
		{op: "serial.check", on: onAll, ops: 10, ns: "serial.check_us_per_kcommit", setup: setupSerialCheck},
		{op: "live.mailbox.hop", on: onLive, ops: 12, ns: "live.mailbox.hop_us", setup: setupLiveHop},
		{op: "live.startstop", on: onLive, ops: 100, ns: "live.startstop_ms", setup: setupLiveStartStop},
	}
}

// setupKernel keeps two kernels at steady heap depths of 50 and 1 000:
// every fired event schedules its own successor, so one Step is one
// schedule plus one fire. Operations alternate between the two depths.
func setupKernel(seed uint64, _ float64) (func(int, *recorder), float64) {
	stream := rng.New(seed, 101)
	kernels := [2]*sim.Kernel{sim.New(), sim.New()}
	for d, depth := range [2]int{50, 1000} {
		k := kernels[d]
		var again func()
		again = func() { k.After(sim.Time(1+stream.Intn(1000)), again) }
		for j := 0; j < depth; j++ {
			again()
		}
	}
	return func(i int, tr *recorder) {
		tr.begin("Kernel.Step")
		kernels[i%2].Step()
		tr.end()
	}, 1
}

// setupNetmodel sends one message and delivers one, 50 in flight.
func setupNetmodel(uint64, float64) (func(int, *recorder), float64) {
	k := sim.New()
	net := netmodel.New(k, sWAN)
	deliver := func() {}
	for j := 0; j < 50; j++ {
		net.Send(1, "bench.msg", deliver)
	}
	return func(_ int, tr *recorder) {
		tr.begin("Network.Send")
		net.Send(1, "bench.msg", deliver)
		tr.end()
		tr.begin("Kernel.Step")
		k.Step()
		tr.end()
	}, 1
}

// setupLockFree is the lock table's uncontended pair: acquire, release.
func setupLockFree(uint64, float64) (func(int, *recorder), float64) {
	m := lock.NewManager()
	return func(i int, tr *recorder) {
		txn := ids.Txn(i + 1)
		tr.begin("Manager.Acquire")
		ok := m.Acquire(txn, ids.Item(i%64), lock.Exclusive)
		tr.end()
		tr.begin("Manager.Release")
		m.Release(txn)
		tr.end()
		if !ok {
			failf("uncontended acquire blocked")
		}
	}, 1
}

// setupLockChain queues 8 writers behind a holder of one item, then
// releases all 9 in order, each release granting the next.
func setupLockChain(uint64, float64) (func(int, *recorder), float64) {
	m := lock.NewManager()
	return func(i int, tr *recorder) {
		base := ids.Txn(i*9 + 1)
		tr.begin("Manager.Acquire x9")
		for j := ids.Txn(0); j < 9; j++ {
			m.Acquire(base+j, 1, lock.Exclusive)
		}
		tr.end()
		tr.begin("Manager.Release x9")
		for j := ids.Txn(0); j < 9; j++ {
			grants := m.Release(base + j)
			if len(grants) != 1 && j != 8 {
				failf("release of %v granted %d", base+j, len(grants))
			}
		}
		tr.end()
	}, 1
}

// setupWFG builds a 50-node wait-for graph whose node 1 heads a depth-8
// chain with a sink beside each link; 34 more nodes wait on the chain
// from outside. One operation closes the chain into a cycle, finds it,
// reopens it and searches again without success.
func setupWFG(uint64, float64) (func(int, *recorder), float64) {
	g := wfg.New()
	for t := ids.Txn(1); t < 8; t++ {
		g.AddEdge(t, t+1)
	}
	for t := ids.Txn(1); t <= 8; t++ {
		g.AddEdge(t, 8+t) // sinks 9..16
	}
	for t := ids.Txn(17); t <= 50; t++ {
		g.AddEdge(t, 1+t%8)
	}
	return func(_ int, tr *recorder) {
		g.AddEdge(8, 1)
		tr.begin("Graph.CycleThrough hit")
		hit := g.CycleThrough(1)
		tr.end()
		g.RemoveEdge(8, 1)
		tr.begin("Graph.CycleThrough miss")
		miss := g.CycleThrough(1)
		tr.end()
		if hit == nil || miss != nil {
			failf("cycle search: hit %v miss %v", hit, miss)
		}
	}, 1
}

// setupPrec orders 8-request windows against a precedence graph of
// about 50 live transactions: each window holds 4 transactions of the
// previous one and 4 new, so half its members arrive constrained.
func setupPrec(uint64, float64) (func(int, *recorder), float64) {
	g := prec.New()
	pending := make([]ids.Txn, 8)
	writes := make([]bool, 8)
	return func(i int, tr *recorder) {
		first := ids.Txn(4*i + 1)
		for j := range pending {
			pending[j] = first + ids.Txn(j)
			writes[j] = (i+j)%3 == 0
		}
		tr.begin("Graph.OrderGrouped")
		order := g.OrderGrouped(pending, writes)
		tr.end()
		tr.begin("Graph.Record")
		g.Record(order)
		tr.end()
		tr.begin("Graph.Remove x4")
		for t := first - 44; t < first-40; t++ {
			g.Remove(t)
		}
		tr.end()
	}, 1
}

// setupFwdlist segments an 8-entry forward list.
func setupFwdlist(uint64, float64) (func(int, *recorder), float64) {
	entries := make([]fwdlist.Entry, 8)
	return func(i int, tr *recorder) {
		for j := range entries {
			entries[j] = fwdlist.Entry{Txn: ids.Txn(i*8 + j + 1), Client: ids.Client(j), Write: j%3 == 0}
		}
		tr.begin("fwdlist.Build")
		l := fwdlist.Build(entries)
		tr.end()
		if l.Len() != 8 {
			failf("list of %d", l.Len())
		}
	}, 1
}

// setupGrant is s-2PL's uncontended hot path: request, immediate grant,
// commit release.
func setupGrant(uint64, float64) (func(int, *recorder), float64) {
	s := protocol.NewLockServer(protocol.VictimRequester, protocol.PolicyDetect)
	return func(i int, tr *recorder) {
		txn := ids.Txn(i + 1)
		tr.begin("LockServer.Request")
		acts := s.Request(protocol.LockRequest{Txn: txn, Item: ids.Item(i % 64), Write: true})
		tr.end()
		if len(acts) != 1 || acts[0].Kind != protocol.LockGrant {
			failf("request acts %+v", acts)
		}
		tr.begin("LockServer.CommitRelease")
		acts = s.CommitRelease(txn)
		tr.end()
		if len(acts) != 0 {
			failf("release acts %+v", acts)
		}
	}, 1
}

// setupContended replays the request stream of des_s2pl against the bare
// LockServer: 50 closed-loop clients drawing the paper's profile, each
// issuing its next request as soon as the last is granted and releasing
// on its final grant, so requests block, close wait-for cycles and lose
// as victims exactly as in the simulator, minus its clock. Profiles are
// drawn beforehand and runnable clients wait in a fixed ring, so the
// timed loop allocates nothing of its own. One operation is one lock
// request with the releases it triggers.
func setupContended(seed uint64, _ float64) (func(int, *recorder), float64) {
	const profilesPerClient = 256
	type client struct {
		id       ids.Client
		profiles [][]wl.Op
		next     int
		txn      ids.Txn
		ops      []wl.Op
		idx      int
	}
	s := protocol.NewLockServer(protocol.VictimRequester, protocol.PolicyDetect)
	root := rng.New(seed, 102)
	var ring [desClients]*client // runnable clients, FIFO
	head, queued := 0, 0
	push := func(c *client) {
		ring[(head+queued)%desClients] = c
		queued++
	}
	for i := 0; i < desClients; i++ {
		c := &client{id: ids.Client(i)}
		gen := wl.NewGenerator(wl.Default(), root.Split(uint64(i)))
		for j := 0; j < profilesPerClient; j++ {
			c.profiles = append(c.profiles, gen.Next().Ops)
		}
		push(c)
	}
	byTxn := make(map[ids.Txn]*client)
	var nextTxn ids.Txn

	var apply func(acts []protocol.LockAction, tr *recorder)
	apply = func(acts []protocol.LockAction, tr *recorder) {
		for _, a := range acts {
			c := byTxn[a.Txn]
			if c == nil {
				failf("action for unknown %v", a.Txn)
			}
			var more []protocol.LockAction
			switch a.Kind {
			case protocol.LockGrant:
				c.idx++
				if c.idx < len(c.ops) {
					push(c)
					continue
				}
				tr.begin("LockServer.CommitRelease")
				more = s.CommitRelease(c.txn)
				tr.end()
			case protocol.LockAbort:
				tr.begin("LockServer.AbortRelease")
				more = s.AbortRelease(c.txn)
				tr.end()
			}
			delete(byTxn, c.txn)
			c.txn = 0
			push(c)
			apply(more, tr)
		}
	}
	return func(_ int, tr *recorder) {
		if queued == 0 {
			failf("every client blocked: undetected deadlock")
		}
		c := ring[head]
		head, queued = (head+1)%desClients, queued-1
		if c.txn == 0 {
			nextTxn++
			c.txn, c.ops, c.idx = nextTxn, c.profiles[c.next%profilesPerClient], 0
			c.next++
			byTxn[c.txn] = c
		}
		op := c.ops[c.idx]
		tr.begin("LockServer.Request")
		acts := s.Request(protocol.LockRequest{Txn: c.txn, Client: c.id, Item: op.Item, Write: op.Write})
		tr.end()
		apply(acts, tr)
	}, 1
}

// setupWindow closes one 8-request g-2PL collection window under MR1W:
// order against the precedence graph, build the forward list, install
// chain edges, walk the flight to completion.
func setupWindow(uint64, float64) (func(int, *recorder), float64) {
	d := protocol.NewDispatcher(protocol.WindowOptions{MR1W: true})
	reqs := make([]protocol.WindowRequest, 8)
	return func(i int, tr *recorder) {
		base := ids.Txn(i*8 + 1)
		for j := range reqs {
			reqs[j] = protocol.WindowRequest{Txn: base + ids.Txn(j), Client: ids.Client(j), Write: j%3 == 0}
		}
		tr.begin("Dispatcher.PlanWindow")
		plan, victims, rest := d.PlanWindow(1, reqs)
		tr.end()
		if plan == nil || len(victims) != 0 || len(rest) != 0 {
			failf("plan %v victims %v rest %v", plan, victims, rest)
		}
		tr.begin("protocol.NewFlight")
		f := protocol.NewFlight(plan)
		tr.end()
		tr.begin("Dispatcher.MemberDone x8")
		for _, txn := range plan.List.Txns() {
			d.MemberDone(f, txn)
			d.Order.Remove(txn)
		}
		tr.end()
	}, 1
}

// setupRecall is c-2PL's callback cycle between two clients: a
// conflicting request recalls the cached item, the holder defers to
// commit, and its finish releases and promotes the waiter.
func setupRecall(uint64, float64) (func(int, *recorder), float64) {
	s := protocol.NewCacheServer(protocol.PolicyDetect)
	holder, other := protocol.NewCacheClient(false), protocol.NewCacheClient(false)
	holder.Begin()
	first := s.Request(1, 0, 1, true, 0)
	holder.Install(1, first[0].Mode, ids.None, 0, true)
	hTxn, hClient, wClient := ids.Txn(1), ids.Client(0), ids.Client(1)
	return func(_ int, tr *recorder) {
		wTxn := hTxn + 1
		tr.begin("CacheServer.Request")
		acts := s.Request(wTxn, wClient, 1, true, 0)
		tr.end()
		if len(acts) != 1 || acts[0].Kind != protocol.CacheRecall {
			failf("request acts %+v", acts)
		}
		tr.begin("CacheClient.Recall")
		dec := holder.Recall(1)
		tr.end()
		if dec != protocol.RecallDefer {
			failf("recall decision %v", dec)
		}
		tr.begin("CacheServer.Defer")
		acts = s.Defer(hTxn, hClient, 1, 0)
		tr.end()
		if len(acts) != 0 {
			failf("defer acts %+v", acts)
		}
		tr.begin("CacheClient.Finish")
		released := holder.Finish(hTxn, []ids.Item{1})
		tr.end()
		tr.begin("CacheServer.Finish")
		acts = s.Finish(hTxn, hClient, released)
		tr.end()
		if len(acts) != 1 || acts[0].Kind != protocol.CacheGrant {
			failf("finish acts %+v", acts)
		}
		tr.begin("CacheClient.Install")
		other.Begin()
		other.Install(1, acts[0].Mode, hTxn, int64(hTxn), true)
		tr.end()
		holder, other = other, holder
		hTxn, hClient, wClient = wTxn, wClient, hClient
	}, 1
}

// newTwoPC returns a recoverable coordinator, as the WAL-backed live
// cluster configures it, and two participants.
func newTwoPC() (*protocol.Coordinator, [2]*protocol.Participant) {
	coord := protocol.NewCoordinator(protocol.VictimRequester, protocol.PolicyDetect)
	coord.SetRecoverable(true)
	return coord, [2]*protocol.Participant{
		protocol.NewParticipant(0, protocol.VictimRequester, protocol.PolicyDetect),
		protocol.NewParticipant(1, protocol.VictimRequester, protocol.PolicyDetect),
	}
}

// setupTwoPCRound commits one 2-shard transaction on the pure cores: a
// write lock at each shard, the commit request, both prepares and votes,
// both decisions and their acknowledgements.
func setupTwoPCRound(uint64, float64) (func(int, *recorder), float64) {
	coord, parts := newTwoPC()
	return func(i int, tr *recorder) {
		txn := ids.Txn(i + 1)
		for s, p := range parts {
			tr.begin("Participant.Request")
			acts := p.Request(protocol.LockRequest{Txn: txn, Item: ids.Item(50*s + i%32), Write: true})
			tr.end()
			if len(acts) != 1 || acts[0].Kind != protocol.PartGrant {
				failf("request acts %+v", acts)
			}
		}
		tr.begin("Coordinator.CommitRequest")
		prepares := coord.CommitRequest(txn, 0, []int{0, 1})
		tr.end()
		if len(prepares) != 2 {
			failf("commit request acts %+v", prepares)
		}
		var decisions []protocol.CoordAction
		for _, a := range prepares {
			tr.begin("Participant.Prepare")
			votes := parts[a.Shard].Prepare(txn, a.Epoch)
			tr.end()
			if len(votes) != 1 || !votes[0].Yes {
				failf("prepare acts %+v", votes)
			}
			tr.begin("Coordinator.Vote")
			decisions = coord.Vote(txn, a.Shard, votes[0].Epoch, true)
			tr.end()
		}
		if len(decisions) != 3 || decisions[2].Kind != protocol.CoordReply || !decisions[2].Commit {
			failf("vote acts %+v", decisions)
		}
		for _, a := range decisions[:2] {
			tr.begin("Participant.Decide")
			parts[a.Shard].Decide(txn, a.Commit)
			tr.end()
			tr.begin("Coordinator.Acked")
			coord.Acked(txn, a.Shard)
			tr.end()
		}
	}, 1
}

// setupOnePhase commits one single-shard transaction: the decision ships
// with the commit request's reply and no vote is collected.
func setupOnePhase(uint64, float64) (func(int, *recorder), float64) {
	coord, parts := newTwoPC()
	return func(i int, tr *recorder) {
		txn := ids.Txn(i + 1)
		tr.begin("Participant.Request")
		acts := parts[0].Request(protocol.LockRequest{Txn: txn, Item: ids.Item(i % 32), Write: true})
		tr.end()
		if len(acts) != 1 || acts[0].Kind != protocol.PartGrant {
			failf("request acts %+v", acts)
		}
		tr.begin("Coordinator.CommitRequest")
		decision := coord.CommitRequest(txn, 0, []int{0})
		tr.end()
		if len(decision) != 2 || decision[0].Kind != protocol.CoordDecide || !decision[0].Commit {
			failf("commit request acts %+v", decision)
		}
		tr.begin("Participant.Decide")
		parts[0].Decide(txn, true)
		tr.end()
		tr.begin("Coordinator.Acked")
		coord.Acked(txn, 0)
		tr.end()
	}, 1
}

// recoverRounds is how many in-flight rounds one recovery re-enters.
const recoverRounds = 1000

// setupRecover restarts a coordinator and both participants from 1 000
// decided-but-unacknowledged 2-shard rounds, each holding one write lock
// per shard.
func setupRecover(uint64, float64) (func(int, *recorder), float64) {
	rounds := make([]protocol.RecoveredRound, recoverRounds)
	var txns [2][]protocol.RecoveredTxn
	for j := range rounds {
		txn := ids.Txn(j + 1)
		rounds[j] = protocol.RecoveredRound{Txn: txn, Shards: []int{0, 1}}
		for s := range txns {
			txns[s] = append(txns[s], protocol.RecoveredTxn{
				Txn: txn, Ts: txn, Locks: []protocol.RecoveredLock{{Item: ids.Item(j), Write: true}},
			})
		}
	}
	return func(_ int, tr *recorder) {
		coord, parts := newTwoPC()
		tr.begin("Coordinator.Recover")
		acts := coord.Recover(rounds)
		tr.end()
		if len(acts) != 2*recoverRounds {
			failf("recover re-sent %d decisions", len(acts))
		}
		for s, p := range parts {
			tr.begin("Participant.Recover")
			p.Recover(txns[s])
			tr.end()
			if p.PreparedCount() != recoverRounds {
				failf("participant recovered %d", p.PreparedCount())
			}
		}
	}, recoverRounds
}

func setupWorkloadNext(seed uint64, _ float64) (func(int, *recorder), float64) {
	gen := wl.NewGenerator(wl.Default(), rng.New(seed, 103))
	return func(_ int, tr *recorder) {
		tr.begin("Generator.Next")
		p := gen.Next()
		tr.end()
		if len(p.Ops) == 0 {
			failf("empty profile")
		}
	}, 1
}

func setupSampleAdd(uint64, float64) (func(int, *recorder), float64) {
	var s stats.Sample
	return func(i int, tr *recorder) {
		tr.begin("Sample.Add")
		s.Add(float64(i))
		tr.end()
	}, 1
}

// setupSerialCheck audits the recorded history of a 5 000-commit s-2PL
// simulation; the unit of work is one commit, so nanoseconds per unit
// read as microseconds per thousand commits.
func setupSerialCheck(seed uint64, scale float64) (func(int, *recorder), float64) {
	commits := scaled(5000, scale)
	res, err := engine.Run(engine.Config{
		Protocol: engine.S2PL, Clients: desClients, Workload: wl.Default(), Latency: sWAN,
		Seed: seed, TargetCommits: commits, RecordHistory: true,
	})
	if err != nil {
		failf("history run: %v", err)
	}
	return func(_ int, tr *recorder) {
		tr.begin("serial.Check")
		err := serial.Check(res.History)
		tr.end()
		if err != nil {
			failf("oracle: %v", err)
		}
	}, float64(commits)
}

// setupLiveHop runs one live client alone over 1 000 items with 1-item
// read-only transactions: nothing ever blocks, so a commit is exactly a
// request hop and a grant hop, each one enqueue, pump, resequencer,
// channel and handler. The unit of work is a thousand hops, so
// nanoseconds per unit read as microseconds per hop.
func setupLiveHop(seed uint64, scale float64) (func(int, *recorder), float64) {
	txns := scaled(2000, scale)
	profile := saturation()
	profile.Items = 1000
	profile.MinTxnItems, profile.MaxTxnItems = 1, 1
	profile.ReadProb = 1
	cfg := live.Config{Protocol: live.S2PL, Clients: 1, Workload: profile, TxnsPerClient: txns}
	return func(i int, tr *recorder) {
		cfg.Seed = seed + uint64(i)
		tr.begin("live.Run")
		res, err := live.Run(cfg)
		tr.end()
		if err != nil || res.Stats.Commits != int64(txns) {
			failf("hop run: %v", err)
		}
	}, float64(2 * txns * 1000)
}

// setupLiveStartStop starts a cluster, commits one transaction per
// client, quiesces and shuts down; milliseconds per run.
func setupLiveStartStop(seed uint64, _ float64) (func(int, *recorder), float64) {
	cfg := live.Config{Protocol: live.S2PL, Clients: liveClients, Workload: saturation(), TxnsPerClient: 1}
	return func(i int, tr *recorder) {
		cfg.Seed = seed + uint64(i)
		tr.begin("live.Run")
		_, err := live.Run(cfg)
		tr.end()
		if err != nil {
			failf("start-stop run: %v", err)
		}
	}, 1e6
}
