package transport

import "testing"

// TestHealthyMessageAllocs pins the per-message cost of a healthy link
// at zero allocations once its record and buffers exist: one send and
// its arrival with ARQ off, and with ARQ on the same plus the standalone
// ack going back and draining the retransmission buffer.
func TestHealthyMessageAllocs(t *testing.T) {
	for _, arq := range []bool{false, true} {
		c, v := newVirtualCore(Config{ARQ: arq, RTO: 10 * ms, MaxRTO: 80 * ms, AckDelay: ms, RetransmitCap: 3})
		msg := any(&twinMsg{})
		var out []any
		exchange := func() {
			v.now += ms
			tx := c.Send(v.now, 0, 1, msg)
			out = c.Arrive(v.now, 1, tx.Pkt, out[:0])
			if len(out) != 1 {
				t.Fatalf("ARQ %v: send delivered %d messages", arq, len(out))
			}
			if arq {
				ack, ok, _ := v.fire(c, Link{Src: 0, Dst: 1}, AckTimer)
				if !ok {
					t.Fatal("no standalone ack")
				}
				c.Arrive(v.now, 0, ack.Pkt, nil)
			}
		}
		exchange() // creates the link records, timers and buffers
		if n := testing.AllocsPerRun(100, exchange); n != 0 {
			t.Errorf("ARQ %v: %v allocations per healthy message, want 0", arq, n)
		}
		if st := c.State(Link{Src: 0, Dst: 1}); st.Unacked != 0 {
			t.Errorf("ARQ %v: %d packets left unacked", arq, st.Unacked)
		}
	}
}
