package exp

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/protocol"
	"repro/internal/stats"
)

// policyMatrix crosses every deadlock policy with every protocol at the
// paper's contended point (pr=0.25, 50 clients, s-WAN) and reports the
// metrics where the policies actually separate: throughput, abort rate,
// p99 response and the abort-cause split. Means barely move between
// detect and avoidance at this point; the tail and the cause mix do.
func policyMatrix(sc Scale, w io.Writer) error {
	fmt.Fprintln(w, "Policy matrix: deadlock policy x protocol (pr=0.25, 50 clients, s-WAN)")
	fmt.Fprintf(w, "  %-10s %-8s %-22s %-16s %-10s %s\n",
		"policy", "protocol", "thru (commits/1k)", "% aborted", "p99 resp", "abort causes")
	for _, pol := range protocol.DeadlockPolicies() {
		name := pol.String()
		for _, proto := range []engine.Protocol{engine.S2PL, engine.G2PL, engine.C2PL} {
			p := sc.Base
			p.Workload.ReadProb = 0.25
			p.Deadlock = pol
			res, err := core.Run(p, proto)
			if err != nil {
				return err
			}
			var resp stats.Sample
			var causes stats.AbortCauses
			for i := range res.Runs {
				resp.Merge(&res.Runs[i].RespSample)
				causes.Merge(res.Runs[i].Causes)
			}
			fmt.Fprintf(w, "  %-10s %-8s %-22s %-16s %-10.0f %s\n",
				name, proto, res.Throughput, res.AbortPct,
				resp.Percentile(0.99), causeString(causes))
			name = ""
		}
	}
	fmt.Fprintln(w)
	return nil
}

// causeString renders the abort-cause split compactly, eliding the
// all-zero case (a policy that never aborted anything at this point).
func causeString(c stats.AbortCauses) string {
	if c.Total() == 0 {
		return "-"
	}
	return fmt.Sprintf("deadlock=%d wound=%d die=%d nowait=%d timeout=%d",
		c.Deadlock, c.Wound, c.Die, c.NoWait, c.Timeout)
}
