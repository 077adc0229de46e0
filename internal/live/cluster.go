package live

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/history"
	"repro/internal/ids"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/workload"
)

// tick is the wall-clock length of one simulation "time unit" used for
// think and idle times, deliberately small so tests run fast while still
// exercising real concurrency.
const tick = 20 * time.Microsecond

// Result of a live cluster run.
type Result struct {
	Stats   Stats
	History *history.Log
	// Values is the final item store of a sharded run, merged across the
	// shard sites after shutdown; nil on a single-server cluster.
	Values map[ids.Item]int64
}

// Run executes a live cluster to completion: every client commits
// Config.TxnsPerClient transactions, the cluster quiesces, and the
// recorded history is returned for auditing.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cl, err := newCluster(cfg)
	if err != nil {
		return nil, err
	}
	return cl.run()
}

// cluster wires the server and client goroutines together.
type cluster struct {
	cfg     Config
	net     *network
	server  *server // single-server topology; nil when sharded
	smap    protocol.RangeShardMap
	shards  []*shardSite
	coord   *coordSite
	clients []*client
	audit   *auditLog

	stopc     chan struct{}
	targetc   chan struct{} // closed when every client reaches its target
	fatalc    chan error    // first unrecoverable transport error (ARQ gave up)
	remaining atomic.Int64  // clients still short of their commit target

	commits atomic.Int64
	aborts  atomic.Int64
	resp    atomic.Int64 // summed response nanoseconds over commits
	// restartAborts counts transactions a client abandoned because a
	// shard site they had state at crash-restarted (Causes.Restart).
	restartAborts atomic.Int64

	nextTxn atomic.Int64
}

func newCluster(cfg Config) (*cluster, error) {
	cl := &cluster{
		cfg:     cfg,
		audit:   &auditLog{},
		stopc:   make(chan struct{}),
		targetc: make(chan struct{}),
		fatalc:  make(chan error, 1),
	}
	cl.net = newNetwork(cfg.Latency, cl.mailboxOf, coreConfig(cfg), cl.fail)
	if cl.sharded() {
		cl.smap = protocol.NewRangeShardMap(cfg.Shards, cfg.Workload.Items)
		for k := 0; k < cfg.Shards; k++ {
			cl.shards = append(cl.shards, newShardSite(cl, k))
		}
		cl.coord = newCoordSite(cl)
	} else {
		cl.server = newServer(cl)
	}
	wl := cfg.effectiveWorkload()
	root := rng.New(cfg.Seed, 1)
	for i := 0; i < cfg.Clients; i++ {
		cl.clients = append(cl.clients, newClient(cl, ids.Client(i),
			workload.NewGenerator(wl, root.Split(uint64(i)))))
	}
	cl.remaining.Store(int64(cfg.Clients))
	return cl, nil
}

// fail records the first unrecoverable transport error and releases the
// harness; later errors are dropped (one is enough to end the run).
func (cl *cluster) fail(err error) {
	select {
	case cl.fatalc <- err:
	default:
	}
}

// sharded reports whether the cluster runs the multi-shard topology.
func (cl *cluster) sharded() bool { return cl.cfg.Shards > 1 }

// mailboxOf resolves a site id to its mailbox: the server, the 2PC
// coordinator, a lock-server shard, or a client.
func (cl *cluster) mailboxOf(c ids.Client) *mailbox {
	switch {
	case c == ids.Server:
		return cl.server.mbox
	case c == ids.Coordinator:
		return cl.coord.mbox
	case c < ids.Coordinator:
		return cl.shards[ids.ShardIndex(c)].mbox
	}
	return cl.clients[int(c)].mbox
}

// protocolBoxes lists the mailboxes of the protocol sites: the single
// server, or the shard sites plus the coordinator.
func (cl *cluster) protocolBoxes() []*mailbox {
	if !cl.sharded() {
		return []*mailbox{cl.server.mbox}
	}
	var boxes []*mailbox
	for _, ss := range cl.shards {
		boxes = append(boxes, ss.mbox)
	}
	return append(boxes, cl.coord.mbox)
}

func (cl *cluster) newTxnID() ids.Txn {
	return ids.Txn(cl.nextTxn.Add(1))
}

// clientAtTarget records one client reaching its commit target; the last
// one releases the harness.
func (cl *cluster) clientAtTarget() {
	if cl.remaining.Add(-1) == 0 {
		close(cl.targetc)
	}
}

// debugStallDump (env LIVE_STALL_DUMP) prints a best-effort snapshot of
// every client's current transaction when a run stalls. The reads are
// deliberately unsynchronized — the owning goroutines are still live —
// so this is a debugging aid for stall hunts, not for -race runs.
var debugStallDump = os.Getenv("LIVE_STALL_DUMP") != ""

func (cl *cluster) run() (*Result, error) {
	start := time.Now()
	var wg sync.WaitGroup
	if cl.sharded() {
		for _, ss := range cl.shards {
			ss := ss
			wg.Add(1)
			go func() {
				defer wg.Done()
				ss.loop()
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.coord.loop()
		}()
	} else {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.server.loop()
		}()
	}
	for _, c := range cl.clients {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.loop()
		}()
	}

	// Wait for every client to reach its commit target. A stopped
	// NewTimer, not time.After: the default deadline is two minutes, and a
	// leaked timer per successful run would pile up across a sweep.
	deadline := cl.cfg.StallTimeout
	if deadline == 0 {
		deadline = 2 * time.Minute
	}
	stall := time.NewTimer(deadline)
	defer stall.Stop()
	var stallErr error
	select {
	case <-cl.targetc:
	case err := <-cl.fatalc:
		stallErr = err
	case <-stall.C:
		stallErr = fmt.Errorf("live: cluster stalled with %d of %d commits",
			cl.commits.Load(), cl.cfg.Clients*cl.cfg.TxnsPerClient)
		if debugStallDump {
			for _, c := range cl.clients {
				t := c.cur
				if t == nil {
					fmt.Printf("STALL client %v: cur=nil committed=%d\n", c.id, c.ncommit)
					continue
				}
				done := false
				if cl.coord != nil {
					done = cl.coord.coord.Done(t.id)
				}
				fmt.Printf("STALL client %v: committed=%d txn=%d ts=%d op=%d/%d committing=%v held=%d touched=%v coordDone=%v\n",
					c.id, c.ncommit, t.id, t.ts, t.opIdx, len(t.profile.Ops), t.committing, t.g.HeldCount(), t.touched, done)
			}
			if cl.coord != nil {
				fmt.Printf("STALL coord quiet=%v crashes=%d rounds=%d\n",
					cl.coord.coord.Quiet(), cl.coord.crashes, len(cl.coord.rounds))
			}
			for _, ss := range cl.shards {
				fmt.Printf("STALL shard %d: crashes=%d prepared=%v\n", ss.idx, ss.crashes, ss.part.PreparedTxns())
			}
		}
	}

	// Quiesce (reached targets only): the server must see every item home
	// and no transaction blocked, so the audit log is complete before
	// shutdown. Either way — success, stall or failed quiesce — the exit
	// path is the same full shutdown, so no error return leaks goroutines
	// or in-flight deliveries into subsequent runs.
	quiet := false
	var unquiet string
	if stallErr == nil {
		quiet, unquiet = cl.quiesce()
	}
	cl.shutdown(&wg)

	if stallErr != nil {
		return nil, stallErr
	}
	if !quiet {
		return nil, fmt.Errorf("live: cluster did not quiesce (commits=%d, unquiet: %s)", cl.commits.Load(), unquiet)
	}

	elapsed := time.Since(start)
	commits := cl.commits.Load()
	var mean time.Duration
	if commits > 0 {
		mean = time.Duration(cl.resp.Load() / commits)
	}
	ts := cl.net.stats()
	st := Stats{
		Commits:         commits,
		Aborts:          cl.aborts.Load(),
		Messages:        ts.Messages,
		Dropped:         ts.Dropped,
		PartitionDrops:  ts.PartitionDrops,
		Quarantined:     ts.Quarantined,
		Retransmits:     ts.Retransmits,
		AcksSent:        ts.AcksSent,
		AcksCoalesced:   ts.AcksCoalesced,
		AcksPiggybacked: ts.AcksPiggybacked,
		MaxRTO:          time.Duration(ts.MaxRTO),
		Elapsed:         elapsed,
		MeanResponse:    mean,
	}
	// The client goroutines are gone (shutdown waited on them), so their
	// latency accounting is safe to merge single-threaded here.
	var respSamp stats.Sample
	var blockedNs, blockedN int64
	for _, c := range cl.clients {
		respSamp.Merge(&c.respSamp)
		blockedNs += c.blockedNs
		blockedN += c.blockedN
	}
	st.P50 = time.Duration(respSamp.Percentile(0.50))
	st.P95 = time.Duration(respSamp.Percentile(0.95))
	st.P99 = time.Duration(respSamp.Percentile(0.99))
	if blockedN > 0 {
		st.MeanBlocked = time.Duration(blockedNs / blockedN)
	}
	if cl.sharded() {
		st.Causes = cl.coord.causes()
		for _, ss := range cl.shards {
			st.Causes.Merge(ss.causes())
		}
		// Restart aborts are attributed client-side (no core sees them).
		st.Causes.Restart = cl.restartAborts.Load()
	} else {
		switch cl.cfg.Protocol {
		case S2PL:
			st.Causes = cl.server.lockCore.Causes()
		case C2PL:
			st.Causes = cl.server.cacheCore.Causes()
		case G2PL:
			st.Causes = cl.server.group.Causes()
		}
	}
	res := &Result{
		Stats:   st,
		History: &cl.audit.log,
	}
	if cl.sharded() {
		// The site goroutines are gone (shutdown waited on them), so their
		// state is safe to harvest single-threaded here.
		res.Stats.TwoPC = cl.coord.counters()
		res.Stats.CoordRestarts = cl.coord.crashes
		res.Stats.Inquiries = cl.coord.inquiries
		res.Stats.InDoubtResolvedCommit = cl.coord.resolvedCommit
		res.Stats.InDoubtResolvedAbort = cl.coord.resolvedAbort
		res.Stats.WALReplayed += cl.coord.replayed
		if cw := cl.coord.cwal; cw != nil {
			res.Stats.WALAppends += cw.appends
			res.Stats.WALCheckpoints += cw.checkpoints
			res.Stats.WALTruncated += cw.truncated
		}
		res.Values = make(map[ids.Item]int64)
		for _, ss := range cl.shards {
			res.Stats.Crashes += ss.crashes
			res.Stats.WALReplayed += ss.replayed
			if ss.wal != nil {
				res.Stats.WALAppends += ss.wal.appends
				res.Stats.WALCheckpoints += ss.wal.checkpoints
				res.Stats.WALTruncated += ss.wal.truncated
			}
			for item, v := range ss.values {
				res.Values[item] = v
			}
		}
	}
	return res, nil
}

// harnessTimeout guards every harness control interaction with a protocol
// goroutine: a wedged server must fail the run, never hang the harness
// past the deadline it just enforced. A variable so tests can shrink it.
var harnessTimeout = 2 * time.Second

// quiesce polls every protocol site until a single pass reports no
// protocol state in flight anywhere. The pass is not atomic, but any
// message still travelling between sites leaves a lock, vote round or
// abort mark open at one of them, so an all-quiet pass implies a truly
// quiescent cluster. Both the control send and the reply wait are
// timeout-guarded, so a wedged site yields a clean not-quiet failure. One
// timer is re-armed across all iterations — time.After here would
// allocate two uncollected timers per poll, five thousand polls deep on a
// busy cluster.
func (cl *cluster) quiesce() (bool, string) {
	guard := time.NewTimer(harnessTimeout)
	defer guard.Stop()
	boxes := cl.protocolBoxes()
	var unquiet string
	for i := 0; i < 5000; i++ {
		quietAll := true
		unquiet = ""
		for _, b := range boxes {
			reply := make(chan bool, 1)
			rearm(guard, harnessTimeout)
			select {
			case b.ch <- quiesceMsg{reply: reply}:
			case <-guard.C:
				return false, fmt.Sprintf("site %v unresponsive", b.owner)
			}
			rearm(guard, harnessTimeout)
			select {
			case quiet := <-reply:
				if !quiet {
					quietAll = false
					if unquiet != "" {
						unquiet += ", "
					}
					unquiet += fmt.Sprint(b.owner)
				}
			case <-guard.C:
				return false, fmt.Sprintf("site %v unresponsive", b.owner)
			}
		}
		if quietAll {
			return true, ""
		}
		time.Sleep(time.Millisecond)
	}
	return false, unquiet
}

// rearm restarts a timer for its next wait: Stop, drain a fire that may
// already sit in the channel, then Reset — the only race-free re-arm
// dance for a timer whose channel is read by a select.
func rearm(t *time.Timer, d time.Duration) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	t.Reset(d)
}

// stopTimer disarms a timer without re-arming it: Stop plus the same
// non-blocking drain, so a fire already sitting in the channel cannot be
// mistaken for a fresh one after a later Reset.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// shutdown stops everything the cluster started — the server and client
// loops via stopc, the ARQ retransmit and ack timers, then the delivery
// pumps and their timers by draining straggler messages until the
// network's waitgroup settles. It is shared by the success and error
// paths.
func (cl *cluster) shutdown(wg *sync.WaitGroup) {
	close(cl.stopc)
	wg.Wait()

	// With the site loops gone no new protocol sends happen; stop the
	// transport before waiting on the delivery waitgroup, so no timer
	// injects a retransmission or ack while (or after) the waitgroup
	// settles.
	cl.net.stop()

	// With the site loops gone, in-flight pumps may be blocked on full
	// mailboxes; drain every mailbox until the last delivery completes.
	drainQuit := make(chan struct{})
	var drains sync.WaitGroup
	boxes := cl.protocolBoxes()
	for _, c := range cl.clients {
		boxes = append(boxes, c.mbox)
	}
	for _, b := range boxes {
		b := b
		drains.Add(1)
		go func() {
			defer drains.Done()
			for {
				select {
				case <-b.ch:
				case <-drainQuit:
					return
				}
			}
		}()
	}
	cl.net.wg.Wait()
	close(drainQuit)
	drains.Wait()
}

// quiesceMsg is the harness's control probe: the server replies whether
// no protocol state is in flight.
type quiesceMsg struct{ reply chan bool }
