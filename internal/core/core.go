// Package core is the public face of the g2pl library: it configures,
// runs and compares the s-2PL and g-2PL protocols under the paper's
// measurement protocol — R independent replications, common random
// numbers across protocols, and 95% Student-t confidence intervals over
// the replication means.
package core

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/netmodel"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Params configures one experiment point: the engine configuration of a
// run plus the number of independent replications. Config.Seed is the
// base of the replication seed schedule and Config.Protocol is set by Run
// and Compare. The zero value is not useful; start from DefaultParams.
type Params struct {
	engine.Config
	Replications int
}

// DefaultParams returns the paper's Table 1 configuration at a laptop
// scale: 50 clients, 25 hot items, s-WAN latency, 5 replications of
// 2 000 measured commits each. Use PaperScale for the full 50 000-commit
// protocol.
func DefaultParams() Params {
	return Params{
		Config: engine.Config{
			Clients:       50,
			Latency:       500,
			Workload:      workload.Default(),
			Seed:          1,
			TargetCommits: 2000,
			WarmupCommits: 200,
			MaxTime:       5_000_000_000,
		},
		Replications: 5,
	}
}

// PaperScale returns p with the paper's full measurement protocol (§5):
// 50 000 transactions per run after a 10% transient, 5 replications.
func (p Params) PaperScale() Params {
	p.TargetCommits = 50000
	p.WarmupCommits = 5000
	p.Replications = 5
	return p
}

// QuickScale returns p with a fast protocol for tests and interactive
// runs.
func (p Params) QuickScale() Params {
	p.TargetCommits = 400
	p.WarmupCommits = 80
	p.Replications = 3
	return p
}

// WithEnvironment returns p with the latency of the named Table 2
// environment (e.g. "s-WAN").
func (p Params) WithEnvironment(abbrev string) (Params, error) {
	env, ok := netmodel.EnvironmentByAbbrev(abbrev)
	if !ok {
		return p, fmt.Errorf("core: unknown network environment %q", abbrev)
	}
	p.Latency = env.Latency
	return p, nil
}

// Validate reports the first configuration error of running p under each
// of protos, or under its own Config.Protocol when none is given.
func (p Params) Validate(protos ...engine.Protocol) error {
	if p.Replications < 1 {
		return fmt.Errorf("core: Replications must be >= 1, got %d", p.Replications)
	}
	if len(protos) == 0 {
		return p.Config.Validate()
	}
	for _, proto := range protos {
		if err := p.replication(proto, 0).Validate(); err != nil {
			return err
		}
	}
	return nil
}

// replication returns the engine configuration of replication r under
// proto: the common-random-numbers seed schedule is Seed + r·0x9e3779b9,
// the same for every protocol.
func (p Params) replication(proto engine.Protocol, r int) engine.Config {
	c := p.Config
	c.Protocol = proto
	c.Seed += uint64(r) * 0x9e3779b9
	return c
}

// ProtocolResult aggregates the replications of one protocol at one
// experiment point.
type ProtocolResult struct {
	Protocol engine.Protocol

	Response   stats.Estimate // mean transaction response time, ticks
	AbortPct   stats.Estimate // percentage of transactions aborted
	Throughput stats.Estimate // commits per 1000 ticks
	Messages   stats.Estimate // messages per finished transaction
	WindowLen  stats.Estimate // mean forward-list length (g-2PL)

	Runs []engine.Result // raw per-replication results
}

// Run executes one protocol at the given parameters across all
// replications.
func Run(p Params, proto engine.Protocol) (ProtocolResult, error) {
	if err := p.Validate(proto); err != nil {
		return ProtocolResult{}, err
	}
	return run(p, proto)
}

func run(p Params, proto engine.Protocol) (ProtocolResult, error) {
	out := ProtocolResult{Protocol: proto}
	var resp, abort, thru, msgs, winl []float64
	for rep := 0; rep < p.Replications; rep++ {
		res, err := engine.Run(p.replication(proto, rep))
		if err != nil {
			return ProtocolResult{}, fmt.Errorf("core: replication %d: %w", rep, err)
		}
		out.Runs = append(out.Runs, res)
		resp = append(resp, res.MeanResponse())
		abort = append(abort, res.AbortPct())
		thru = append(thru, res.Throughput())
		msgs = append(msgs, float64(res.Messages)/float64(res.Commits+res.Aborts))
		winl = append(winl, res.WindowLen.Mean())
	}
	out.Response = stats.FromReplications(resp)
	out.AbortPct = stats.FromReplications(abort)
	out.Throughput = stats.FromReplications(thru)
	out.Messages = stats.FromReplications(msgs)
	out.WindowLen = stats.FromReplications(winl)
	return out, nil
}

// Comparison holds both protocols at one experiment point, run under
// common random numbers: replication i of each protocol uses the same
// seed and therefore faces the same client workload streams.
type Comparison struct {
	S2PL ProtocolResult
	G2PL ProtocolResult
}

// Compare runs both protocols at the given parameters, validating both
// configurations before running either.
func Compare(p Params) (Comparison, error) {
	if err := p.Validate(engine.S2PL, engine.G2PL); err != nil {
		return Comparison{}, err
	}
	s, err := run(p, engine.S2PL)
	if err != nil {
		return Comparison{}, err
	}
	g, err := run(p, engine.G2PL)
	if err != nil {
		return Comparison{}, err
	}
	return Comparison{S2PL: s, G2PL: g}, nil
}

// Improvement returns the relative response-time improvement of g-2PL
// over s-2PL in percent (positive means g-2PL is faster), the paper's
// headline metric.
func (c Comparison) Improvement() float64 {
	s := c.S2PL.Response.Mean
	if s == 0 {
		return 0
	}
	return 100 * (1 - c.G2PL.Response.Mean/s)
}
