package live

import (
	"fmt"
	"time"

	"repro/internal/transport"
)

// ChaosConfig turns the live network from a well-behaved link into an
// adversarial one: deliveries may be reordered, duplicated, jittered and
// dropped per link, and whole directed links may go down for seeded
// partition windows. The faults are drawn from deterministic streams
// derived from Config.Seed, so a failing chaos run names a seed that
// reproduces the same fault decisions. The protocol edge (sequence
// numbers stamped by the sender, resequencing at the receiver, and —
// once Drop or Partition is in play — the ARQ retransmission layer; all
// of it in package transport) must
// mask all of it: the cores still see exactly-once, in-order event
// streams, and the serializability oracle checks the result.
type ChaosConfig struct {
	// Reorder is the per-message probability that a delivery is displaced
	// behind up to three deliveries already queued at its destination.
	Reorder float64
	// Duplicate is the per-message probability that a delivery is
	// enqueued twice; the receiver's dedup must drop the copy.
	Duplicate float64
	// Jitter is the maximum extra delivery delay, drawn uniformly per
	// message on top of the configured link latency.
	Jitter time.Duration
	// Drop is the per-transmission probability that a delivery is lost in
	// flight: it never reaches the destination mailbox. Loss is masked by
	// the ARQ layer (Config.ARQ) unless that layer is disabled, in which
	// case a dropped protocol message is fatal — the run ends in a stall
	// error rather than a silent hang. Drop and Duplicate are independent
	// rolls: a transmission that is both dropped and duplicated still
	// arrives once, via the duplicate copy.
	Drop float64
	// Partition puts directed links through recurring down windows during
	// which every transmission — both copies of a duplicate — is lost.
	// Unlike Drop, an outage is a property of the link, not of one
	// transmission, so the ARQ layer quarantines the link (pausing
	// retransmit-cap escalation and backoff growth) and heals it with a
	// retransmission when the window ends. See PartitionConfig.
	Partition PartitionConfig
}

// enabled reports whether any fault injection is configured.
func (c ChaosConfig) enabled() bool {
	return c.Reorder > 0 || c.Duplicate > 0 || c.Jitter > 0 || c.Drop > 0 ||
		c.Partition.enabled()
}

// validate reports the first bad chaos knob.
func (c ChaosConfig) validate() error {
	switch {
	case c.Reorder < 0 || c.Reorder > 1:
		return fmt.Errorf("live: Chaos.Reorder must be in [0, 1], got %v", c.Reorder)
	case c.Duplicate < 0 || c.Duplicate > 1:
		return fmt.Errorf("live: Chaos.Duplicate must be in [0, 1], got %v", c.Duplicate)
	case c.Jitter < 0:
		return fmt.Errorf("live: Chaos.Jitter must be >= 0, got %v", c.Jitter)
	case c.Drop < 0 || c.Drop > 1:
		return fmt.Errorf("live: Chaos.Drop must be in [0, 1], got %v", c.Drop)
	}
	return c.Partition.validate()
}

// PartitionConfig describes seeded-deterministic directed link outages:
// each afflicted link cycles through a Down window every Every period,
// with a per-link random phase so the windows do not line up across the
// cluster. During a window the link delivers nothing; the ARQ layer
// knows the window from the same link record and defers
// retransmission to the heal point instead of declaring the link dead.
type PartitionConfig struct {
	// Prob is the probability that a directed link is partition-afflicted
	// at all; afflicted links then cycle down windows for the whole run.
	Prob float64
	// Down is the length of each outage window on an afflicted link.
	Down time.Duration
	// Every is the period between consecutive window starts; it must
	// exceed Down so the link has up-time to heal in. Zero defaults to
	// 10×Down.
	Every time.Duration
}

// enabled reports whether partition windows are configured.
func (c PartitionConfig) enabled() bool { return c.Prob > 0 && c.Down > 0 }

// withDefaults resolves the zero period to the documented default.
func (c PartitionConfig) withDefaults() PartitionConfig {
	if c.Every == 0 {
		c.Every = 10 * c.Down
	}
	return c
}

// validate reports the first bad partition knob.
func (c PartitionConfig) validate() error {
	switch {
	case c.Prob < 0 || c.Prob > 1:
		return fmt.Errorf("live: Chaos.Partition.Prob must be in [0, 1], got %v", c.Prob)
	case c.Down < 0:
		return fmt.Errorf("live: Chaos.Partition.Down must be >= 0, got %v", c.Down)
	case c.Every < 0:
		return fmt.Errorf("live: Chaos.Partition.Every must be >= 0, got %v", c.Every)
	case c.enabled() && c.Every > 0 && c.Every <= c.Down:
		return fmt.Errorf("live: Chaos.Partition.Every (%v) must exceed Down (%v) — the link needs up-time to heal in", c.Every, c.Down)
	}
	return nil
}

// ARQConfig tunes the per-link automatic-repeat-request layer that makes
// delivery reliable over a lossy transport (Chaos.Drop > 0): senders
// retain unacked envelopes and retransmit the lowest one on a timeout
// with exponential backoff; receivers return cumulative acknowledgements,
// piggybacked on reverse-direction envelopes when traffic exists and as
// standalone coalesced ack messages otherwise. The zero value means
// "enabled with defaults"; fields left zero take the defaults below.
type ARQConfig struct {
	// Disabled turns retransmission off entirely. With Chaos.Drop > 0 a
	// lost protocol message then stalls the run, which the stall timeout
	// converts into a loud error — never a silent hang.
	Disabled bool
	// RTO is the initial retransmission timeout for the lowest unacked
	// envelope on a link. Default 5ms.
	RTO time.Duration
	// MaxRTO caps the exponential backoff. Default 16×RTO.
	MaxRTO time.Duration
	// RetransmitCap bounds how many times the same lowest unacked
	// envelope is retransmitted before the link is presumed dead and the
	// run fails with an explicit error. Default 25.
	RetransmitCap int
	// AckDelay is the coalescing window for standalone acknowledgements:
	// an ack-worthy arrival arms one timer per link, and every further
	// arrival inside the window rides on the same cumulative ack.
	// Default RTO/4.
	AckDelay time.Duration
}

// validate reports the first bad ARQ knob.
func (c ARQConfig) validate() error {
	switch {
	case c.RTO < 0:
		return fmt.Errorf("live: ARQ.RTO must be >= 0, got %v", c.RTO)
	case c.MaxRTO < 0:
		return fmt.Errorf("live: ARQ.MaxRTO must be >= 0, got %v", c.MaxRTO)
	case c.RTO > 0 && c.MaxRTO > 0 && c.MaxRTO < c.RTO:
		return fmt.Errorf("live: ARQ.MaxRTO (%v) must not be below ARQ.RTO (%v)", c.MaxRTO, c.RTO)
	case c.RetransmitCap < 0:
		return fmt.Errorf("live: ARQ.RetransmitCap must be >= 0, got %d", c.RetransmitCap)
	case c.AckDelay < 0:
		return fmt.Errorf("live: ARQ.AckDelay must be >= 0, got %v", c.AckDelay)
	}
	return nil
}

// withDefaults resolves zero fields to the documented defaults.
func (c ARQConfig) withDefaults() ARQConfig {
	if c.RTO == 0 {
		c.RTO = 5 * time.Millisecond
	}
	if c.MaxRTO == 0 {
		c.MaxRTO = 16 * c.RTO
	}
	if c.RetransmitCap == 0 {
		c.RetransmitCap = 25
	}
	if c.AckDelay == 0 {
		c.AckDelay = c.RTO / 4
	}
	return c
}

// coreConfig converts the live knobs, once, into the transport core's
// configuration in nanoseconds. A link that can lose messages — per-
// transmission drops or whole partition windows — needs the
// retransmission layer; without either there is nothing to recover and
// the acks would be pure overhead.
func coreConfig(cfg Config) transport.Config {
	chaos := cfg.Chaos
	pc := chaos.Partition.withDefaults()
	tc := transport.Config{
		Seed:      cfg.Seed,
		Reorder:   chaos.Reorder,
		Duplicate: chaos.Duplicate,
		Drop:      chaos.Drop,
		Jitter:    transport.Time(chaos.Jitter),
		PartProb:  pc.Prob,
		PartDown:  transport.Time(pc.Down),
		PartEvery: transport.Time(pc.Every),
	}
	if (chaos.Drop > 0 || pc.enabled()) && !cfg.ARQ.Disabled {
		a := cfg.ARQ.withDefaults()
		tc.ARQ = true
		tc.RTO, tc.MaxRTO, tc.AckDelay = transport.Time(a.RTO), transport.Time(a.MaxRTO), transport.Time(a.AckDelay)
		tc.RetransmitCap = a.RetransmitCap
	}
	return tc
}
