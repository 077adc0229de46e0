// Package workload generates the paper's synthetic transaction stream
// (Table 1): each client repeatedly runs one transaction at a time; a
// transaction accesses between 1 and N distinct data items drawn uniformly
// from a pool of M hot items; each access is a read with probability p_r
// and a write otherwise; operations are separated by a uniform think
// (computation) time and transactions by a uniform idle time.
//
// A skewed (Zipf) access pattern is provided as an extension beyond the
// paper; all reproduction experiments use Uniform.
package workload

import (
	"fmt"
	"sort"

	"repro/internal/ids"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Pattern selects how transactions pick data items from the pool.
type Pattern int

const (
	// Uniform picks items uniformly without replacement (the paper's model).
	Uniform Pattern = iota
	// Zipf picks items with a skewed distribution (extension).
	Zipf
)

// Config describes the transaction profile.
type Config struct {
	Items       int     // M: size of the hot-item pool
	MinTxnItems int     // minimum items per transaction (paper: 1)
	MaxTxnItems int     // maximum items per transaction (paper: 5)
	ReadProb    float64 // p_r: probability an access is a read
	ThinkMin    sim.Time
	ThinkMax    sim.Time
	IdleMin     sim.Time
	IdleMax     sim.Time
	Access      Pattern
	ZipfTheta   float64 // skew for Access == Zipf, in (0,1)

	// Sorted makes every transaction access its items in ascending id
	// order, the classical deadlock-free acquisition discipline. The
	// paper assumes no ordering ("no data access patterns have been
	// assumed"); this is an extension knob for ablations.
	Sorted bool

	// Locality is the probability an access targets the client's home
	// partition of the item pool instead of the whole pool (extension,
	// used by the c-2PL comparison: lock caching pays off only with
	// affinity). The engines fill HomeSlot/HomeSlots per client.
	Locality  float64
	HomeSlot  int
	HomeSlots int

	// Shards, when > 1, aligns transactions with a range-sharded item
	// space: with probability CrossProb a transaction draws from the whole
	// pool (and so usually spans shards), otherwise it is confined to one
	// shard's contiguous range — the shard owning an anchor item drawn
	// through the normal access pattern, so a Zipf anchor concentrates
	// confined traffic on the hot shard. The ranges mirror
	// protocol.RangeShardMap: Items/Shards per shard, remainder on the
	// last.
	Shards    int
	CrossProb float64
}

// shardRange returns the half-open item range [lo, hi) owned by shard s,
// mirroring protocol.RangeShardMap's placement.
func (c Config) shardRange(s int) (lo, hi int) {
	per := c.Items / c.Shards
	lo = s * per
	hi = lo + per
	if s == c.Shards-1 {
		hi = c.Items
	}
	return lo, hi
}

// shardOf returns the shard owning item, mirroring
// protocol.RangeShardMap.Of.
func (c Config) shardOf(item int) int {
	per := c.Items / c.Shards
	s := item / per
	if s >= c.Shards {
		s = c.Shards - 1
	}
	return s
}

// home returns the half-open item range [lo, hi) of this client's home
// partition.
func (c Config) home() (lo, hi int) {
	if c.HomeSlots <= 0 {
		return 0, c.Items
	}
	per := c.Items / c.HomeSlots
	if per < 1 {
		per = 1
	}
	lo = (c.HomeSlot * per) % c.Items
	hi = lo + per
	if hi > c.Items {
		hi = c.Items
	}
	return lo, hi
}

// Default returns the paper's Table 1 profile: 25 hot items, 1-5 items
// per transaction, computation 1-3, idle 2-10.
func Default() Config {
	return Config{
		Items:       25,
		MinTxnItems: 1,
		MaxTxnItems: 5,
		ReadProb:    0.5,
		ThinkMin:    1,
		ThinkMax:    3,
		IdleMin:     2,
		IdleMax:     10,
		Access:      Uniform,
	}
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	switch {
	case c.Items <= 0:
		return fmt.Errorf("workload: Items must be positive, got %d", c.Items)
	case c.MinTxnItems < 1:
		return fmt.Errorf("workload: MinTxnItems must be >= 1, got %d", c.MinTxnItems)
	case c.MaxTxnItems < c.MinTxnItems:
		return fmt.Errorf("workload: MaxTxnItems %d < MinTxnItems %d", c.MaxTxnItems, c.MinTxnItems)
	case c.MaxTxnItems > c.Items:
		return fmt.Errorf("workload: MaxTxnItems %d exceeds pool of %d items", c.MaxTxnItems, c.Items)
	case c.ReadProb < 0 || c.ReadProb > 1:
		return fmt.Errorf("workload: ReadProb %v outside [0,1]", c.ReadProb)
	case c.ThinkMin < 0 || c.ThinkMax < c.ThinkMin:
		return fmt.Errorf("workload: think range [%d,%d] invalid", c.ThinkMin, c.ThinkMax)
	case c.IdleMin < 0 || c.IdleMax < c.IdleMin:
		return fmt.Errorf("workload: idle range [%d,%d] invalid", c.IdleMin, c.IdleMax)
	case c.Access == Zipf && (c.ZipfTheta <= 0 || c.ZipfTheta >= 1):
		return fmt.Errorf("workload: ZipfTheta %v outside (0,1)", c.ZipfTheta)
	case c.Locality < 0 || c.Locality > 1:
		return fmt.Errorf("workload: Locality %v outside [0,1]", c.Locality)
	case c.Shards < 0:
		return fmt.Errorf("workload: Shards must be non-negative, got %d", c.Shards)
	case c.CrossProb < 0 || c.CrossProb > 1:
		return fmt.Errorf("workload: CrossProb %v outside [0,1]", c.CrossProb)
	case c.Shards > 1 && c.Items/c.Shards < c.MaxTxnItems:
		return fmt.Errorf("workload: shard range of %d items cannot hold MaxTxnItems %d", c.Items/c.Shards, c.MaxTxnItems)
	case c.Shards > 1 && c.Locality > 0:
		return fmt.Errorf("workload: Shards and Locality are mutually exclusive")
	}
	return nil
}

// Transfer is the bank workload's one rule: transaction txn moves txn%7+1
// from its first account (idx 0) to its second, so this returns the new
// balance of the idx-th account given its granted balance. Every
// serializable execution therefore conserves the global balance sum.
func Transfer(txn ids.Txn, idx int, balance int64) int64 {
	delta := int64(txn%7) + 1
	if idx == 0 {
		return balance - delta
	}
	return balance + delta
}

// Op is one data access of a transaction.
type Op struct {
	Item  ids.Item
	Write bool
}

// Profile is the access list of one transaction instance, in execution
// order (the paper's execution pattern is sequential).
type Profile struct {
	Ops []Op
}

// ReadOnly reports whether every operation is a read.
func (p Profile) ReadOnly() bool {
	for _, op := range p.Ops {
		if op.Write {
			return false
		}
	}
	return true
}

// Generator produces transaction profiles and timing draws for one client
// from a private random stream, so protocols compared under the same seed
// face identical workloads.
type Generator struct {
	cfg    Config
	stream *rng.Stream
	zipf   *rng.Zipf
}

// NewGenerator returns a generator for the given profile and stream.
// It panics on an invalid config; validate at the API boundary instead.
func NewGenerator(cfg Config, stream *rng.Stream) *Generator {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	g := &Generator{cfg: cfg, stream: stream}
	if cfg.Access == Zipf {
		g.zipf = rng.NewZipf(cfg.Items, cfg.ZipfTheta)
	}
	return g
}

// Next draws the next transaction profile.
func (g *Generator) Next() Profile {
	k := g.stream.IntRange(g.cfg.MinTxnItems, g.cfg.MaxTxnItems)
	var items []int
	switch {
	case g.cfg.Locality > 0:
		lo, hi := g.cfg.home()
		seen := make(map[int]bool, k)
		for len(items) < k {
			var v int
			if g.stream.Bool(g.cfg.Locality) && hi > lo {
				v = lo + g.stream.Intn(hi-lo)
			} else {
				v = g.stream.Intn(g.cfg.Items)
			}
			if !seen[v] {
				seen[v] = true
				items = append(items, v)
			}
		}
	case g.cfg.Shards > 1 && !g.stream.Bool(g.cfg.CrossProb):
		// Shard-confined transaction: the anchor draw picks the shard
		// (through the configured access pattern, so skew shows up as a
		// hot shard), then the items come uniformly from its range.
		var anchor int
		if g.cfg.Access == Zipf {
			anchor = g.zipf.Next(g.stream)
		} else {
			anchor = g.stream.Intn(g.cfg.Items)
		}
		lo, hi := g.cfg.shardRange(g.cfg.shardOf(anchor))
		seen := make(map[int]bool, k)
		for len(items) < k {
			v := lo + g.stream.Intn(hi-lo)
			if !seen[v] {
				seen[v] = true
				items = append(items, v)
			}
		}
	case g.cfg.Access == Uniform:
		items = g.stream.Sample(g.cfg.Items, k)
	case g.cfg.Access == Zipf:
		seen := make(map[int]bool, k)
		for len(items) < k {
			v := g.zipf.Next(g.stream)
			if !seen[v] {
				seen[v] = true
				items = append(items, v)
			}
		}
	}
	if g.cfg.Sorted {
		sort.Ints(items)
	}
	ops := make([]Op, k)
	for i, it := range items {
		ops[i] = Op{Item: ids.Item(it), Write: !g.stream.Bool(g.cfg.ReadProb)}
	}
	return Profile{Ops: ops}
}

// Think draws one computation time (paper: uniform 1-3 units).
func (g *Generator) Think() sim.Time {
	return sim.Time(g.stream.IntRange(int(g.cfg.ThinkMin), int(g.cfg.ThinkMax)))
}

// Idle draws one between-transactions idle time (paper: uniform 2-10).
func (g *Generator) Idle() sim.Time {
	return sim.Time(g.stream.IntRange(int(g.cfg.IdleMin), int(g.cfg.IdleMax)))
}
