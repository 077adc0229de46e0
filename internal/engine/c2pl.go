package engine

import (
	"repro/internal/ids"
	"repro/internal/lock"
	"repro/internal/protocol"
	"repro/internal/workload"
)

// C2PL is the caching two-phase locking variant the paper mentions in
// §3.1 ("a variation of s-2PL that allows caching of locks across
// transaction boundaries") and asks to compare against in its future
// work. Locks and data copies belong to client sites and survive
// commits; a conflicting request makes the server recall the lock from
// its holders, who release immediately if idle on the item or at commit
// if their running transaction used it (callback semantics).
const C2PL Protocol = 2

// c2plTxn is one transaction instance under c-2PL; the protocol's state
// is per site (the cache), not per transaction.
type c2plTxn = txn[struct{}]

// c2plRun adapts the protocol c-2PL cores to the discrete-event kernel:
// ownership, recalls, deferral bookkeeping and deadlock resolution live
// in protocol.CacheServer, the per-site cache in protocol.CacheClient;
// this driver owns the version store and message delivery, the harness
// the transaction lifecycle.
type c2plRun struct {
	*harness[struct{}]
	core    *protocol.CacheServer
	caches  []*protocol.CacheClient // one lock/data cache per client site
	version map[ids.Item]ids.Txn
}

func runC2PL(cfg Config) (Result, error) {
	r := &c2plRun{
		core:    protocol.NewCacheServer(cfg.Deadlock),
		version: make(map[ids.Item]ids.Txn),
	}
	for i := 0; i < cfg.Clients; i++ {
		r.caches = append(r.caches, protocol.NewCacheClient(cfg.NoCache))
	}
	r.harness = newRun(cfg, "c2pl", r.step, r.commit)
	res, err := r.finish()
	if err != nil {
		return res, err
	}
	res.Causes = r.core.Causes()
	return res, nil
}

func (r *c2plRun) cache(t *c2plTxn) *protocol.CacheClient { return r.caches[t.client.id] }

// step performs the current operation: a sufficient cached lock is a
// local hit (no network at all — the whole point of c-2PL); otherwise
// the request travels to the server. The first step opens the cache's
// transaction.
func (r *c2plRun) step(t *c2plTxn) {
	op := t.op()
	cache := r.cache(t)
	if t.opIdx == 0 {
		cache.Begin()
	}
	if ver, _, ok := cache.Hit(op.Item, op.Write); ok {
		r.granted(t, op, ver)
		return
	}
	t.reqSent = r.kernel.Now()
	r.net.Send(sizeRequest, "c2pl.req", func() { r.serverRequest(t, op) })
}

// serverRequest hands a cache miss to the server core and emits its
// decisions.
func (r *c2plRun) serverRequest(t *c2plTxn, op workload.Op) {
	r.applyCacheActions(r.core.Request(t.id, t.client.id, op.Item, op.Write, t.ts))
}

// applyCacheActions emits the core's ordered decisions onto the simulated
// network — the single delivery site for c-2PL grants, recalls and abort
// notices (repolint's twophase check pins the core's grant funnel; this
// is its engine-side counterpart). The core only emits grants and aborts
// for transactions it has seen a live request from, so the active lookup
// cannot miss.
func (r *c2plRun) applyCacheActions(acts []protocol.CacheAction) {
	for _, a := range acts {
		switch a.Kind {
		case protocol.CacheGrant:
			t := r.active[a.Txn]
			item, mode := a.Item, a.Mode
			ver := r.version[item]
			size := sizeData
			if a.Already {
				size = sizeControl
			}
			r.net.Send(size, "c2pl.grant", func() { r.clientGrant(t, item, mode, ver) })
		case protocol.CacheRecall:
			c, item := a.Client, a.Item
			r.net.Send(sizeControl, "c2pl.recall", func() { r.clientRecall(c, item) })
		case protocol.CacheAbort:
			t := r.active[a.Txn]
			delete(r.active, a.Txn)
			r.col.abortEnq++
			r.net.Send(sizeControl, "c2pl.abort", func() { r.clientAbort(t) })
		}
	}
}

// clientGrant installs the granted lock and data in the cache and
// resumes the transaction (unless it aborted while the grant was in
// flight — the client keeps the cached lock, locks belong to sites).
func (r *c2plRun) clientGrant(t *c2plTxn, item ids.Item, mode lock.Mode, ver ids.Txn) {
	live := t.live()
	ver, _ = r.cache(t).Install(item, mode, ver, 0, live)
	if !live {
		return
	}
	r.waited(t)
	r.granted(t, t.op(), ver)
}

// clientRecall handles a server callback: release immediately when the
// running transaction has not used the item, defer to commit otherwise.
func (r *c2plRun) clientRecall(c ids.Client, item ids.Item) {
	if r.caches[c].Recall(item) == protocol.RecallDefer {
		t := r.clients[c].cur
		r.net.Send(sizeControl, "c2pl.defer", func() { r.serverDefer(t, item) })
		return
	}
	r.net.Send(sizeControl, "c2pl.release", func() { r.serverRelease(c, item) })
}

// serverDefer records the holder's deferral at the core; deadlock
// detection happens here, the first moment the server learns the wait is
// real.
func (r *c2plRun) serverDefer(t *c2plTxn, item ids.Item) {
	r.applyCacheActions(r.core.Defer(t.id, t.client.id, item, t.ts))
}

// serverRelease handles a standalone (idle-cache) release.
func (r *c2plRun) serverRelease(c ids.Client, item ids.Item) {
	r.applyCacheActions(r.core.Release(c, item))
}

// clientAbort replaces the aborted transaction; its deferred recalls now
// release (the aborted work never used them durably) and its cache
// in-use marks clear.
func (r *c2plRun) clientAbort(t *c2plTxn) {
	if !t.live() {
		return // the commit beat the wound notice; nothing to unwind
	}
	r.aborted(t)
	r.finishClient(t, nil)
	r.scheduleNext(t.client)
}

// commit finishes the transaction: response time stops, updates and
// deferred releases travel to the server in one message, write locks and
// new versions stay cached.
func (r *c2plRun) commit(t *c2plTxn) {
	rec := t.record()
	r.committed(t, rec)
	r.finishClient(t, rec.Writes)
	r.scheduleNext(t.client)
}

// finishClient performs the client-side end of transaction (commit or
// abort) via the cache core and sends the combined commit/release
// message.
func (r *c2plRun) finishClient(t *c2plTxn, writes []ids.Item) {
	released := r.cache(t).Finish(t.id, writes)
	size := sizeControl + sizeData*len(writes)
	r.net.Send(size, "c2pl.finish", func() { r.serverFinish(t, writes, released) })
}

// serverFinish installs the committed versions and hands the deferred
// releases to the core, promoting waiting requests.
func (r *c2plRun) serverFinish(t *c2plTxn, writes []ids.Item, released []ids.Item) {
	for _, item := range writes {
		r.version[item] = t.id
	}
	delete(r.active, t.id)
	r.applyCacheActions(r.core.Finish(t.id, t.client.id, released))
}
