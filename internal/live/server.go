package live

import (
	"fmt"

	"repro/internal/ids"
	"repro/internal/protocol"
)

// server is the single data-server site. All state below is owned by the
// server goroutine (loop); no locks are needed. The protocol decisions —
// lock table, wait-for and precedence graphs, window ordering, recall
// bookkeeping — live in the protocol cores; the server adapts their
// actions to messages.
type server struct {
	cl   *cluster
	mbox *mailbox

	// lockCore is the s-2PL state machine.
	lockCore *protocol.LockServer

	// group is the g-2PL state machine.
	group *protocol.GroupServer

	// cacheCore is the c-2PL state machine.
	cacheCore *protocol.CacheServer

	// Shared versioned store.
	versions map[ids.Item]ids.Txn
	values   map[ids.Item]int64
}

func newServer(cl *cluster) *server {
	mbox := newMailbox(ids.Server, 16*cl.cfg.Clients)
	return &server{
		cl:       cl,
		mbox:     mbox,
		lockCore: protocol.NewLockServer(cl.cfg.Victim, cl.cfg.Deadlock),
		// The server cannot see what has reached a client, so it has no
		// held-items view to offer: the requester that closes a cycle dies.
		group:     protocol.NewGroupServer(protocol.WindowOptions{MR1W: !cl.cfg.NoMR1W}, cl.cfg.Deadlock, cl.cfg.Victim, nil),
		cacheCore: protocol.NewCacheServer(cl.cfg.Deadlock),
		versions:  make(map[ids.Item]ids.Txn),
		values:    make(map[ids.Item]int64),
	}
}

func (s *server) loop() {
	for {
		select {
		case <-s.cl.stopc:
			return
		case m := <-s.mbox.ch:
			switch msg := m.(type) {
			case quiesceMsg:
				msg.reply <- s.quiet()
			default:
				switch s.cl.cfg.Protocol {
				case S2PL:
					s.handleS2PL(m)
				case G2PL:
					s.handleG2PL(m)
				case C2PL:
					s.handleC2PL(m)
				default:
					panic(fmt.Sprintf("live: server running unknown protocol %v", s.cl.cfg.Protocol))
				}
			}
		}
	}
}

// quiet reports whether no protocol state is in flight.
func (s *server) quiet() bool {
	switch s.cl.cfg.Protocol {
	case S2PL:
		return s.lockCore.Quiet()
	case C2PL:
		return s.cacheCore.Quiet()
	case G2PL:
		return s.group.Quiet()
	default:
		panic(fmt.Sprintf("live: server running unknown protocol %v", s.cl.cfg.Protocol))
	}
}

// ---- s-2PL ----

func (s *server) handleS2PL(m message) {
	switch msg := m.(type) {
	case reqMsg:
		s.s2plRequest(msg)
	case releaseMsg:
		s.s2plRelease(msg)
	default:
		// Every other message kind is client-bound; receiving one here is
		// a routing bug, and dropping it would stall the sender forever.
		panic(fmt.Sprintf("live: s-2PL server got unexpected %T", m))
	}
}

func (s *server) s2plRequest(m reqMsg) {
	s.applyLock(s.lockCore.Request(protocol.LockRequest{
		Txn: m.txn, Client: m.client, Item: m.item, Write: m.write, Ts: m.ts,
	}))
}

func (s *server) s2plRelease(m releaseMsg) {
	for _, w := range m.writes {
		s.versions[w.item] = m.txn
		s.values[w.item] = w.value
	}
	if m.aborted {
		s.applyLock(s.lockCore.AbortRelease(m.txn))
		return
	}
	s.applyLock(s.lockCore.CommitRelease(m.txn))
}

// applyLock emits the lock core's ordered decisions as messages — the
// single delivery site for s-2PL grants and abort notices.
func (s *server) applyLock(acts []protocol.LockAction) {
	for _, a := range acts {
		switch a.Kind {
		case protocol.LockGrant:
			s.cl.net.send(ids.Server, a.Client, dataMsg{
				txn:     a.Txn,
				item:    a.Req.Item,
				version: s.versions[a.Req.Item],
				value:   s.values[a.Req.Item],
			})
		case protocol.LockAbort:
			// Addressed via Txn/Client, not Req: a wounded lock holder has
			// no queued request for the core to echo back.
			s.cl.net.send(ids.Server, a.Client, abortMsg{txn: a.Txn})
		}
	}
}

// ---- g-2PL ----

// handleG2PL turns the three server-bound g-2PL messages into core events:
// a request, a return (the data coming home, or a final-segment reader's
// release) and a client's cc that a member finished an item. There is no
// commit message: the core retires a transaction with its last done.
func (s *server) handleG2PL(m message) {
	switch msg := m.(type) {
	case reqMsg:
		s.applyGroup(s.group.Request(protocol.GroupRequest{
			Txn: msg.txn, Client: msg.client, Item: msg.item, Write: msg.write, Ts: msg.ts,
		}))
	case fwdMsg:
		if !msg.release {
			s.versions[msg.item] = msg.version
			s.values[msg.item] = msg.value
		}
		s.applyGroup(s.group.Return(msg.item))
	case doneMsg:
		s.group.Done(msg.item, msg.txn)
	default:
		panic(fmt.Sprintf("live: g-2PL server got unexpected %T", m))
	}
}

// applyGroup emits the group core's ordered decisions as messages — the
// single emission site for server-side g-2PL data and abort notices. A
// ready window dispatches at once: the live server has no window delay.
func (s *server) applyGroup(acts []protocol.GroupAction) {
	for _, a := range acts {
		switch a.Kind {
		case protocol.GroupData:
			s.cl.net.send(ids.Server, a.Client, dataMsg{
				txn:     a.Txn,
				item:    a.Item,
				version: s.versions[a.Item],
				value:   s.values[a.Item],
				plan:    a.Plan,
			})
		case protocol.GroupAbort:
			s.cl.net.send(ids.Server, a.Client, abortMsg{txn: a.Txn})
		case protocol.GroupReady:
			_, next := s.group.Dispatch(a.Item)
			s.applyGroup(next)
		}
	}
}

// ---- c-2PL ----

func (s *server) handleC2PL(m message) {
	switch msg := m.(type) {
	case reqMsg:
		s.c2plRequest(msg)
	case deferMsg:
		s.c2plDefer(msg)
	case crelMsg:
		s.c2plRelease(msg)
	case finishMsg:
		s.c2plFinish(msg)
	default:
		panic(fmt.Sprintf("live: c-2PL server got unexpected %T", m))
	}
}

func (s *server) c2plRequest(m reqMsg) {
	s.applyCache(s.cacheCore.Request(m.txn, m.client, m.item, m.write, m.ts))
}

func (s *server) c2plDefer(m deferMsg) {
	s.applyCache(s.cacheCore.Defer(m.txn, m.client, m.item, m.ts))
}

func (s *server) c2plRelease(m crelMsg) {
	s.applyCache(s.cacheCore.Release(m.client, m.item))
}

func (s *server) c2plFinish(m finishMsg) {
	for _, w := range m.writes {
		s.versions[w.item] = m.txn
		s.values[w.item] = w.value
	}
	s.applyCache(s.cacheCore.Finish(m.txn, m.client, m.released))
}

// applyCache emits the cache core's ordered decisions as messages — the
// single delivery site for c-2PL grants, recalls and abort notices.
func (s *server) applyCache(acts []protocol.CacheAction) {
	for _, a := range acts {
		switch a.Kind {
		case protocol.CacheGrant:
			s.cl.net.send(ids.Server, a.Client, grantMsg{
				txn:     a.Txn,
				item:    a.Item,
				mode:    a.Mode,
				version: s.versions[a.Item],
				value:   s.values[a.Item],
			})
		case protocol.CacheRecall:
			s.cl.net.send(ids.Server, a.Client, recallMsg{item: a.Item})
		case protocol.CacheAbort:
			s.cl.net.send(ids.Server, a.Client, abortMsg{txn: a.Txn})
		}
	}
}
