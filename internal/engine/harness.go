package engine

import (
	"fmt"

	"repro/internal/history"
	"repro/internal/ids"
	"repro/internal/netmodel"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The harness is the client model every protocol runs under (paper §4):
// multiprogramming level 1, think between operations, idle between
// transactions, restart after an abort. It is stated once so that two runs
// under a common seed differ only in the protocol. A protocol file is an
// adapter: it embeds a harness, hands it the two client steps that are
// protocol-specific (request, commit) and keeps its server entry points
// and action funnels.

// Message payload sizes in abstract units. Data-carrying messages dwarf
// control messages; the paper's point is that at gigabit rates this does
// not matter, but we account for it so experiments can show g-2PL's
// larger messages explicitly.
const (
	sizeRequest = 1
	sizeData    = 8
	sizeControl = 1
)

// txn is one transaction instance. X is the adapter's per-transaction
// state, held by value so an instance stays a single allocation.
type txn[X any] struct {
	id      ids.Txn
	ts      ids.Txn // priority timestamp: first incarnation's id
	client  *client[X]
	profile workload.Profile
	opIdx   int
	start   sim.Time
	reqSent sim.Time
	x       X // not last: a zero-size final field would pad the struct
	reads   []history.Read
}

func (t *txn[X]) op() workload.Op { return t.profile.Ops[t.opIdx] }

// record is the history entry of t's commit: its reads so far and every
// write of its profile.
func (t *txn[X]) record() history.Committed {
	rec := history.Committed{Txn: t.id, Reads: t.reads}
	for _, op := range t.profile.Ops {
		if op.Write {
			rec.Writes = append(rec.Writes, op.Item)
		}
	}
	return rec
}

// client is one client site: multiprogramming level 1, sequential
// execution (paper §4).
type client[X any] struct {
	h   *harness[X]
	id  ids.Client
	gen *workload.Generator
	// cur is the transaction the client's timers still act for; nil between
	// transactions and once an abort has pre-empted it (see kill).
	cur *txn[X]
	// carryTs is the timestamp an aborted transaction bequeaths to its
	// restart: under Wait-Die/Wound-Wait a victim retries with a fresh id
	// but its original priority, so it ages into un-killability instead of
	// starving. Cleared on commit.
	carryTs ids.Txn
}

// harness owns what a run needs whatever the protocol: kernel, network,
// measurement, the clients and their transaction lifecycle. The server's
// computation takes zero simulated time (paper §4 charges the same cost to
// every protocol and argues it is off the critical path).
type harness[X any] struct {
	cfg     Config
	kernel  *sim.Kernel
	net     *netmodel.Network
	col     *collector
	hasher  *sim.TrajectoryHasher
	clients []*client[X]
	// active holds the transactions the server side may still act on; an
	// adapter drops an entry when the server aborts it or sees it finish.
	active  map[ids.Txn]*txn[X]
	nextTxn ids.Txn

	// Client-side event labels, "<prefix>.begin" and so on. The prefix is
	// the adapter's; bench/ groups spans by it.
	lblBegin, lblThink, lblCommit string

	// request issues t's current operation; commit starts t's commit at the
	// client. Bound once per run, so a timer costs one closure and no more.
	// Timer closures capture a single pointer and reach the harness through
	// client.h: a closure in generic code also carries the type dictionary,
	// and a second capture would grow it past the three words it had when
	// each protocol wrote its own.
	request, commit func(*txn[X])
}

// newRun builds the run and schedules every client's first transaction.
func newRun[X any](cfg Config, prefix string, request, commit func(*txn[X])) *harness[X] {
	k := sim.New()
	h := &harness[X]{
		cfg:       cfg,
		kernel:    k,
		hasher:    installTracer(k, cfg),
		net:       netmodel.New(k, cfg.Latency),
		col:       newCollector(k, cfg),
		active:    make(map[ids.Txn]*txn[X]),
		nextTxn:   1,
		lblBegin:  prefix + ".begin",
		lblThink:  prefix + ".think",
		lblCommit: prefix + ".commit",
		request:   request,
		commit:    commit,
	}
	if cfg.PartitionFor > 0 {
		h.net.SetOutage(cfg.PartitionAt, cfg.PartitionAt+cfg.PartitionFor)
	}
	root := rng.New(cfg.Seed, 1)
	wl := cfg.workload()
	wl.HomeSlots = cfg.Clients
	for i := 0; i < cfg.Clients; i++ {
		wl.HomeSlot = i
		c := &client[X]{
			h:   h,
			id:  ids.Client(i),
			gen: workload.NewGenerator(wl, root.Split(uint64(i))),
		}
		h.clients = append(h.clients, c)
		k.AtLabeled(c.gen.Idle(), h.lblBegin, func() { c.begin() })
	}
	if cfg.MaxTime > 0 {
		h.col.guard = k.AtLabeled(cfg.MaxTime, "maxtime", k.Stop)
	}
	return h
}

// finish runs the kernel to the commit target and assembles the result
// fields every protocol reports; the adapter adds its cores' counters.
func (h *harness[X]) finish() (Result, error) {
	k, cfg := h.kernel, h.cfg
	k.Run()
	if !h.col.done {
		name := cfg.Protocol.String()
		if cfg.Shards > 1 {
			name = "sharded " + name
		}
		return Result{}, fmt.Errorf("engine: %s run hit MaxTime %d with %d/%d commits", name, cfg.MaxTime, h.col.commits, cfg.TargetCommits)
	}
	res := h.col.result(cfg.Protocol, h.net.Messages, h.net.Bytes, k.Now())
	res.Held = h.net.Held
	res.Events = k.Fired()
	if h.hasher != nil {
		res.TrajectoryHash = h.hasher.Sum64()
	}
	return res, nil
}

// begin starts a fresh transaction at client c and issues its first
// request immediately.
func (c *client[X]) begin() {
	h := c.h
	if h.col.done {
		return // a draining run reached its target; clients stop spawning
	}
	ts := c.carryTs
	if ts == 0 {
		ts = h.nextTxn
	}
	t := &txn[X]{
		id:      h.nextTxn,
		ts:      ts,
		client:  c,
		profile: c.gen.Next(),
		start:   h.kernel.Now(),
	}
	h.nextTxn++
	c.cur = t
	h.active[t.id] = t
	h.request(t)
}

// live reports whether t is still the transaction its client runs. An
// abort can overtake a transaction mid-think, so every timer re-checks
// before it acts.
func (t *txn[X]) live() bool { return t.client.cur == t }

// kill drops t from the server's view and pre-empts its client's timers
// in the same instant. Sharded s-2PL and g-2PL abort this way: their
// victim's next think or commit timer must not fire, where single-server
// s-2PL and c-2PL let the client run on until the notice arrives (they
// only delete from active). t is in active, so it is its client's cur.
func (h *harness[X]) kill(t *txn[X]) {
	delete(h.active, t.id)
	t.client.cur = nil
}

// waited accounts the wait from t's last request to the grant arriving now.
func (h *harness[X]) waited(t *txn[X]) { h.col.opWaited(h.kernel.Now() - t.reqSent) }

// granted finishes one operation of t: record the access, think, then
// resume.
func (h *harness[X]) granted(t *txn[X], op workload.Op, ver ids.Txn) {
	if !op.Write {
		t.reads = append(t.reads, history.Read{Item: op.Item, Version: ver})
	}
	label := h.lblCommit
	if t.opIdx+1 < len(t.profile.Ops) {
		label = h.lblThink
	}
	h.kernel.AfterLabeled(t.client.gen.Think(), label, func() { t.resume() })
}

// resume runs when t's think time ends: issue the next request or, after
// the last operation, commit — unless an abort overtook t meanwhile.
func (t *txn[X]) resume() {
	if !t.live() {
		return
	}
	h := t.client.h
	if t.opIdx+1 < len(t.profile.Ops) {
		t.opIdx++
		h.request(t)
		return
	}
	h.commit(t)
}

// committed ends t at its client: response time stops here.
func (h *harness[X]) committed(t *txn[X], rec history.Committed) {
	t.client.carryTs = 0
	h.col.commit(h.kernel.Now()-t.start, rec)
}

// aborted counts t's abort at its client; the restart inherits t's
// priority.
func (h *harness[X]) aborted(t *txn[X]) {
	t.client.carryTs = t.ts
	h.col.abort()
}

// scheduleNext replaces the finished transaction after an idle period
// (paper §4). A draining run that reached its target stops here instead;
// a stopping run still draws and schedules, which the goldens pin.
func (h *harness[X]) scheduleNext(c *client[X]) {
	c.cur = nil
	if h.col.done && h.col.drain {
		return
	}
	h.kernel.AfterLabeled(c.gen.Idle(), h.lblBegin, func() { c.begin() })
}
