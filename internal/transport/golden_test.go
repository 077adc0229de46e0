package transport

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ids"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// compareGolden checks got against testdata/name byte for byte, or
// rewrites the file under -update.
func compareGolden(t *testing.T, name, got string) {
	t.Helper()
	path := "testdata/" + name
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("%s differs from the golden file:\n--- got\n%s\n--- want\n%s", name, got, want)
	}
}

const (
	us = Time(1_000)
	ms = Time(1_000_000)
	hr = 3600 * 1000 * ms
)

// goldenChaos is the fault mixes whose per-link directives are pinned:
// the live chaos suite's six modes plus one partition configuration.
var goldenChaos = []struct {
	name string
	cfg  Config
}{
	{"reorder", Config{Reorder: 0.35}},
	{"dup", Config{Duplicate: 0.3}},
	{"jitter", Config{Jitter: 400 * us}},
	{"drop", Config{Drop: 0.25}},
	{"all", Config{Reorder: 0.35, Duplicate: 0.3, Jitter: 400 * us}},
	{"all4", Config{Reorder: 0.35, Duplicate: 0.3, Jitter: 400 * us, Drop: 0.2}},
	{"partition", Config{PartProb: 0.6, PartDown: 20 * ms, PartEvery: 200 * ms}},
}

// TestRollGolden pins the chaos policy's decisions: for every mode, seed
// and link, a hash of the first 2 000 directives and of the partition
// oracle at fixed instants 1.7 ms apart, spanning many partition periods.
func TestRollGolden(t *testing.T) {
	links := []Link{{Src: ids.Server, Dst: 1}, {Src: 2, Dst: ids.Server}, {Src: 3, Dst: 4}}
	var out strings.Builder
	for _, mode := range goldenChaos {
		for seed := uint64(1); seed <= 3; seed++ {
			for _, l := range links {
				cfg := mode.cfg
				cfg.Seed = seed
				c, _ := newVirtualCore(cfg)
				rolls, downs := sha256.New(), sha256.New()
				for i := 0; i < 2000; i++ {
					now := Time(i) * 1_700_003
					d := c.Send(now, l.Src, l.Dst, nil).Directive
					fmt.Fprintf(rolls, "%d %t %d %t %t\n", d.Displace, d.Duplicate, d.Jitter, d.Drop, d.Partitioned)
					fmt.Fprintf(downs, "%d\n", c.downFor(now, c.get(l)))
				}
				fmt.Fprintf(&out, "%s seed=%d %v->%v roll=%x down=%x\n", mode.name, seed, l.Src, l.Dst, rolls.Sum(nil)[:8], downs.Sum(nil)[:8])
			}
		}
	}
	compareGolden(t, "rolls.golden", out.String())
}

// TestARQGolden replays testdata/arq.script through the core with every
// timer parked (RTO and AckDelay of an hour), so fires happen only where
// the script says. The transcript records every transmission, every
// in-order delivery, the dead-link verdict and the final counters.
func TestARQGolden(t *testing.T) {
	f, err := os.Open("testdata/arq.script")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c, v := newVirtualCore(Config{ARQ: true, RTO: hr, MaxRTO: 4 * hr, RetransmitCap: 3, AckDelay: hr})
	var out strings.Builder
	var wire []Tx
	put := func(tx Tx, ok bool, err error) {
		if err != nil {
			fmt.Fprintf(&out, "fatal\n")
		}
		if !ok {
			return
		}
		if tx.Pkt.Seq == 0 {
			fmt.Fprintf(&out, "#%d tx %v->%v ack cum=%d\n", len(wire), tx.Pkt.Src, tx.Dst, tx.Pkt.Ack)
		} else {
			fmt.Fprintf(&out, "#%d tx %v->%v seq=%d ack=%d msg=%v\n", len(wire), tx.Pkt.Src, tx.Dst, tx.Pkt.Seq, tx.Pkt.Ack, tx.Pkt.Msg)
		}
		wire = append(wire, tx)
	}
	link := func(f []string) Link {
		src, _ := strconv.Atoi(f[1])
		dst, _ := strconv.Atoi(f[2])
		return Link{Src: ids.Client(src), Dst: ids.Client(dst)}
	}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		fmt.Fprintf(&out, "> %s\n", line)
		f := strings.Fields(line)
		switch f[0] {
		case "send":
			l := link(f)
			put(c.Send(v.now, l.Src, l.Dst, f[3]), true, nil)
		case "arrive":
			i, _ := strconv.Atoi(f[1])
			for _, m := range c.Arrive(v.now, wire[i].Dst, wire[i].Pkt, nil) {
				fmt.Fprintf(&out, "deliver ->%v %v\n", wire[i].Dst, m)
			}
		case "rtx":
			put(v.fire(c, link(f), RetransmitTimer))
		case "ack":
			put(v.fire(c, link(f), AckTimer))
		default:
			t.Fatalf("bad script line %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	fmt.Fprintf(&out, "stats messages=%d retransmits=%d quarantined=%d acksSent=%d acksCoalesced=%d acksPiggybacked=%d maxRTO=%d\n",
		st.Messages, st.Retransmits, st.Quarantined, st.AcksSent, st.AcksCoalesced, st.AcksPiggybacked, st.MaxRTO)
	compareGolden(t, "arq.golden", out.String())
}

func TestNextSeqWraparoundGuard(t *testing.T) {
	if got := nextSeq(0); got != 1 {
		t.Fatalf("nextSeq(0) = %d, want 1", got)
	}
	if got := nextSeq(41); got != 42 {
		t.Fatalf("nextSeq(41) = %d, want 42", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("sequence wraparound must panic: a wrapped counter would alias live and ancient seqs")
		}
	}()
	nextSeq(math.MaxUint64)
}
