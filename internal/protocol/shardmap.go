package protocol

import (
	"fmt"

	"repro/internal/ids"
)

// RangeShardMap partitions the item space across K lock-server shards in
// contiguous ranges: items [0, per) to shard 0, [per, 2*per) to shard 1,
// and so on, with the remainder on the last shard. The mapping is pure
// and stable: every site (clients, shards, coordinator) computes the same
// owner for an item without coordination. Range placement lets a
// workload confine a transaction to one shard by drawing items from one
// range — the hot-shard and bank-transfer tests depend on that alignment.
type RangeShardMap struct {
	K     int
	Items int // total item-pool size
}

// NewRangeShardMap returns a range map of items over k shards; both must
// be positive and k must not exceed items.
func NewRangeShardMap(k, items int) RangeShardMap {
	if k <= 0 || items <= 0 || k > items {
		panic(fmt.Sprintf("protocol: invalid range shard map k=%d items=%d", k, items))
	}
	return RangeShardMap{K: k, Items: items}
}

// Of returns the shard owning the item's range. Items at or beyond the
// pool size clamp to the last shard.
func (m RangeShardMap) Of(item ids.Item) int {
	per := m.Items / m.K
	s := int(item) / per
	if s >= m.K {
		s = m.K - 1
	}
	return s
}
