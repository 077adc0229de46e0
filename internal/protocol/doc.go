// Package protocol holds the transport-agnostic cores of the paper's
// three concurrency-control protocols: server-based strict two-phase
// locking (s-2PL), group two-phase locking with forward lists and MR1W
// (g-2PL), and caching two-phase locking with lock recalls (c-2PL).
//
// Each core is a pure, deterministic state machine: typed input events go
// in (a lock request, a release, a done notification, a recall response,
// a transaction finish) and typed output actions come out (grant this
// request, recall that item, abort this transaction), in the exact order
// the driver must emit them. The cores know nothing about sim.Kernel,
// goroutines, channels or wall time — the discrete-event engines
// (internal/engine) and the live goroutine cluster (internal/live) are
// thin adapters that translate their transports onto the same decision
// logic, so a protocol rule exists in exactly one place.
//
// Ownership split (DESIGN.md §9):
//
//   - LockServer owns the s-2PL lock table, wait-for graph and blocked
//     set; drivers own the version store and message delivery.
//   - GroupServer owns the g-2PL server: every item's window and flight,
//     the transaction table, the one policy block point, cycle victims,
//     return counting — over a Dispatcher (wait-for and precedence
//     graphs, window ordering), FlightPlan (per-flight routing) and
//     Flight (member completion). Drivers own when a ready window
//     dispatches and the store. The DES reports a commit with Finish; the
//     live server gets no commit message, so there a transaction retires
//     with its last done report.
//   - GroupClient owns the clients' side of g-2PL, one value per
//     transaction: the items delivered to it, the reader releases gathered
//     for it, the MR1W commit gate, and where each item goes when the
//     transaction ends (paper §3.2, §3.4). Drivers own the messages, the
//     transaction's lifecycle and when to forget it (Settled).
//   - CacheServer owns the c-2PL ownership table, queues, recall and
//     deferral bookkeeping plus its wait-for graph; CacheClient owns the
//     client lock/data cache, in-use marks and deferred recalls. Drivers
//     own the version store and the messages between them.
//
// Determinism contract: every action slice is ordered, and any internal
// iteration that feeds action emission runs over sorted keys — two
// identical event sequences produce identical action sequences. The
// golden-trajectory suite in internal/engine pins this bit-for-bit.
package protocol
