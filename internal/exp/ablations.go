package exp

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ablationWindow sweeps the collection-window delay. The paper's footnote
// 1 reports that tuning the window "does not produce significant
// performance gains"; this ablation reproduces that finding (delays only
// add boundary latency — windows are limited by the number of in-flight
// requesters, not by collection time).
func ablationWindow(sc Scale, w io.Writer) error {
	s := stats.NewSeries(
		"g-2PL mean response time vs collection-window delay (pr=0.25, 50 clients, s-WAN)",
		"window_delay", "mean response time", curveG)
	for _, d := range []sim.Time{0, 25, 100, 250, 500} {
		p := sc.Base
		p.Workload.ReadProb = 0.25
		p.WindowDelay = d
		g, err := core.Run(p, engine.G2PL)
		if err != nil {
			return err
		}
		s.Add(float64(d), map[string]stats.Estimate{curveG: g.Response})
	}
	return s.WriteTable(w)
}

// variantTable renders a one-row-per-variant comparison of g-2PL
// configurations at a fixed workload point.
func variantTable(w io.Writer, title string, sc Scale, pr float64, variants []struct {
	name string
	mut  func(*core.Params)
}) error {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "  %-28s %-20s %-16s %s\n", "variant", "mean response", "% aborted", "msgs/txn")
	for _, v := range variants {
		p := sc.Base
		p.Workload.ReadProb = pr
		if v.mut != nil {
			v.mut(&p)
		}
		g, err := core.Run(p, engine.G2PL)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-28s %-20s %-16s %s\n", v.name, g.Response, g.AbortPct, g.Messages)
	}
	fmt.Fprintln(w)
	return nil
}

func ablationMR1W(sc Scale, w io.Writer) error {
	return variantTable(w, "Ablation: MR1W overlap (pr=0.6, 50 clients, s-WAN)", sc, 0.6,
		[]struct {
			name string
			mut  func(*core.Params)
		}{
			{"g-2PL (full)", nil},
			{"g-2PL without MR1W", func(p *core.Params) { p.NoMR1W = true }},
		})
}

func ablationAvoidance(sc Scale, w io.Writer) error {
	return variantTable(w, "Ablation: deadlock avoidance (pr=0.25, 50 clients, s-WAN)", sc, 0.25,
		[]struct {
			name string
			mut  func(*core.Params)
		}{
			{"g-2PL (full)", nil},
			{"g-2PL without avoidance", func(p *core.Params) { p.NoAvoidance = true }},
		})
}

func ablationGrouping(sc Scale, w io.Writer) error {
	return variantTable(w, "Ablation: forward-list ordering rule (pr=0.6, 50 clients, s-WAN)", sc, 0.6,
		[]struct {
			name string
			mut  func(*core.Params)
		}{
			{"reader-grouping (default)", nil},
			{"pure FIFO windows", func(p *core.Params) { p.FIFOWindows = true }},
		})
}

func ablationVictim(sc Scale, w io.Writer) error {
	fmt.Fprintln(w, "Ablation: deadlock victim policy (pr=0.25, 50 clients, s-WAN)")
	fmt.Fprintf(w, "  %-28s %-10s %-20s %s\n", "policy", "protocol", "mean response", "% aborted")
	for _, v := range []struct {
		name   string
		policy protocol.VictimPolicy
	}{
		{"requester (default)", protocol.VictimRequester},
		{"least held work", protocol.VictimLeastHeld},
	} {
		p := sc.Base
		p.Workload.ReadProb = 0.25
		p.Victim = v.policy
		c, err := core.Compare(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-28s %-10s %-20s %s\n", v.name, "s-2PL", c.S2PL.Response, c.S2PL.AbortPct)
		fmt.Fprintf(w, "  %-28s %-10s %-20s %s\n", "", "g-2PL", c.G2PL.Response, c.G2PL.AbortPct)
	}
	fmt.Fprintln(w)
	return nil
}

// extReadExpand evaluates the paper's proposed-but-deferred read-only
// optimization (§3.3): late readers join a dispatched read group, which
// removes both the read penalty and read-only deadlocks.
func extReadExpand(sc Scale, w io.Writer) error {
	fmt.Fprintln(w, "Extension: read expansion in a read-only system (50 clients)")
	fmt.Fprintf(w, "  %-10s %-22s %-20s %-16s %-20s %s\n",
		"latency", "variant", "mean response", "% aborted", "s-2PL response", "s-2PL % aborted")
	for _, lat := range []sim.Time{1, 250} {
		p := sc.Base
		p.Latency = lat
		p.Workload.ReadProb = 1.0
		c, err := core.Compare(p)
		if err != nil {
			return err
		}
		pe := p
		pe.ReadExpand = true
		ge, err := core.Run(pe, engine.G2PL)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-10d %-22s %-20s %-16s %-20s %s\n",
			lat, "g-2PL basic", c.G2PL.Response, c.G2PL.AbortPct, c.S2PL.Response, c.S2PL.AbortPct)
		fmt.Fprintf(w, "  %-10d %-22s %-20s %-16s\n",
			lat, "g-2PL + read expand", ge.Response, ge.AbortPct)
	}
	fmt.Fprintln(w)
	return nil
}

// extSorted evaluates canonical (ascending) item access order, the
// classical deadlock-free discipline, under both protocols.
func extSorted(sc Scale, w io.Writer) error {
	fmt.Fprintln(w, "Extension: canonical item access order (pr=0.25, 50 clients, s-WAN)")
	fmt.Fprintf(w, "  %-18s %-10s %-20s %s\n", "access order", "protocol", "mean response", "% aborted")
	for _, sorted := range []bool{false, true} {
		p := sc.Base
		p.Workload.ReadProb = 0.25
		p.Workload.Sorted = sorted
		c, err := core.Compare(p)
		if err != nil {
			return err
		}
		name := "random (paper)"
		if sorted {
			name = "sorted"
		}
		fmt.Fprintf(w, "  %-18s %-10s %-20s %s\n", name, "s-2PL", c.S2PL.Response, c.S2PL.AbortPct)
		fmt.Fprintf(w, "  %-18s %-10s %-20s %s\n", "", "g-2PL", c.G2PL.Response, c.G2PL.AbortPct)
	}
	fmt.Fprintln(w)
	return nil
}

// extC2PL compares all three protocols — s-2PL, g-2PL and the caching
// c-2PL variant (paper §3.1 and its future work) — with and without
// access locality. Lock caching only pays when clients revisit their own
// data; on the paper's uniform hot set it mostly adds recall traffic.
func extC2PL(sc Scale, w io.Writer) error {
	fmt.Fprintln(w, "Extension: caching 2PL comparison (pr=0.5, 20 clients, 100 items, s-WAN)")
	fmt.Fprintf(w, "  %-18s %-10s %-20s %-14s %s\n", "locality", "protocol", "mean response", "% aborted", "msgs/txn")
	for _, locality := range []float64{0, 0.9} {
		name := fmt.Sprintf("%.0f%%", 100*locality)
		for _, proto := range []engine.Protocol{engine.S2PL, engine.G2PL, engine.C2PL} {
			p := sc.Base
			p.Clients = 20
			p.Workload.Items = 100
			p.Workload.MaxTxnItems = 3
			p.Workload.ReadProb = 0.5
			p.Workload.Locality = locality
			res, err := core.Run(p, proto)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  %-18s %-10s %-20s %-14s %s\n",
				name, proto, res.Response, res.AbortPct, res.Messages)
			name = ""
		}
	}
	fmt.Fprintln(w)
	return nil
}
