package transport

import (
	"sort"
	"testing"

	"repro/internal/ids"
)

// FuzzTransport drives the core through arbitrary interleavings over two
// to four sites: sends on any link, the arrival of any in-flight copy
// (consumed, or left in flight to arrive again), losses, clock advances
// and timer fires. The wire is the fuzzer's: it reorders, duplicates and
// drops at will. Throughout, every link must deliver exactly once and in
// order, and each link's acknowledgements must go out non-decreasing and
// never ahead of delivery. Then a loss-free drain must leave every
// message delivered and every held and unacked buffer empty.
func FuzzTransport(f *testing.F) {
	f.Add(uint8(0), []byte{0, 0, 0, 1, 1, 0, 4, 0, 2, 0, 0, 3, 4, 0})
	f.Add(uint8(1), []byte{0, 1, 0, 4, 0, 2, 3, 0, 1, 1, 5, 9, 4, 1, 2, 0, 0, 7, 1, 2})
	f.Add(uint8(2), []byte{0, 0, 0, 5, 0, 10, 3, 0, 3, 0, 2, 1, 1, 0, 1, 0, 5, 200, 4, 0})
	f.Fuzz(func(t *testing.T, sites uint8, ops []byte) {
		if len(ops) > 4096 {
			return
		}
		n := 2 + int(sites%3)
		c, v := newVirtualCore(Config{ARQ: true, RTO: 10, MaxRTO: 80, AckDelay: 3, RetransmitCap: 1 << 30})
		var flight []Tx
		sent, got := map[Link]int{}, map[Link]int{}
		acked := map[Link]uint64{} // highest ack transmitted for each link
		var buf []any
		put := func(tx Tx, ok bool, err error) {
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return
			}
			if a := tx.Pkt.Ack; a > 0 {
				l := Link{Src: tx.Dst, Dst: tx.Pkt.Src} // the link this ack covers
				if a < acked[l] || a > uint64(got[l]) {
					t.Fatalf("ack %d for %v→%v after ack %d with %d delivered", a, l.Src, l.Dst, acked[l], got[l])
				}
				acked[l] = a
			}
			flight = append(flight, tx)
		}
		arrive := func(i int) {
			tx := flight[i]
			buf = c.Arrive(v.now, tx.Dst, tx.Pkt, buf[:0])
			l := Link{Src: tx.Pkt.Src, Dst: tx.Dst}
			for _, m := range buf {
				if m.(int) != got[l] {
					t.Fatalf("%v→%v delivered message %d, want %d", l.Src, l.Dst, m, got[l])
				}
				got[l]++
			}
		}
		remove := func(i int) { flight = append(flight[:i], flight[i+1:]...) }
		// armed lists the armed timers in a fixed order.
		armed := func() []timerKey {
			var keys []timerKey
			for k := range v.due {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool {
				a, b := keys[i], keys[j]
				if a.l != b.l {
					return a.l.Src < b.l.Src || a.l.Src == b.l.Src && a.l.Dst < b.l.Dst
				}
				return a.kind < b.kind
			})
			return keys
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%6, int(ops[i+1])
			switch op {
			case 0: // send on a link chosen by arg
				src := ids.Client(arg % n)
				dst := (src + 1 + ids.Client(arg/n%(n-1))) % ids.Client(n)
				l := Link{Src: src, Dst: dst}
				put(c.Send(v.now, src, dst, sent[l]), true, nil)
				sent[l]++
			case 1, 2: // a copy arrives; op 2 leaves it in flight to arrive again
				if len(flight) > 0 {
					j := arg % len(flight)
					arrive(j)
					if op == 1 {
						remove(j)
					}
				}
			case 3: // a copy is lost
				if len(flight) > 0 {
					remove(arg % len(flight))
				}
			case 4: // a timer fires at its deadline
				if keys := armed(); len(keys) > 0 {
					k := keys[arg%len(keys)]
					put(v.fire(c, k.l, k.kind))
				}
			case 5: // time passes
				v.now += Time(arg)
			}
		}
		// Drain on a loss-free wire: deliver in flight order, else fire
		// the earliest timer, until nothing is left.
		for steps := 0; ; steps++ {
			if steps > 1_000_000 {
				t.Fatal("drain did not converge")
			}
			if len(flight) > 0 {
				arrive(0)
				remove(0)
				continue
			}
			keys := armed()
			if len(keys) == 0 {
				break
			}
			first := keys[0]
			for _, k := range keys[1:] {
				if v.due[k] < v.due[first] {
					first = k
				}
			}
			put(v.fire(c, first.l, first.kind))
		}
		for _, k := range c.all {
			if got[k.key] != sent[k.key] {
				t.Fatalf("%v→%v delivered %d of %d", k.key.Src, k.key.Dst, got[k.key], sent[k.key])
			}
			if len(k.unacked) != 0 || len(k.held) != 0 {
				t.Fatalf("%v→%v drained with %d unacked and %d held", k.key.Src, k.key.Dst, len(k.unacked), len(k.held))
			}
		}
	})
}
