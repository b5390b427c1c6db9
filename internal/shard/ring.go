package shard

import (
	"fmt"
	"sort"
)

// Ring is a consistent-hash ring mapping worker IDs to members: the
// engine's shards (labels "shard-<i>") and the gateway's nodes (labels
// "node-<name>" over the sorted live names). Each member owns
// virtualNodes points, hashed from "<label>#<v>", so the mapping is (a) a
// pure function of the labels — the property the 1-shard determinism test
// and snapshot restore rely on — and (b) stable under membership change:
// adding or removing a member moves only the keys on that member's arcs,
// instead of rehashing everything the way `hash % N` would.
//
// The ring is immutable; a membership change builds a new one.
type Ring struct {
	points []ringPoint // sorted by hash, ties by member index
}

type ringPoint struct {
	hash   uint64
	member int
}

// virtualNodes is the ring points per member.
const virtualNodes = 64

// NewRing builds a ring over the member labels; Lookup returns indices
// into labels. Labels must be non-empty and unique.
func NewRing(labels []string) (*Ring, error) {
	if len(labels) == 0 {
		return nil, fmt.Errorf("shard: ring needs >= 1 member")
	}
	seen := make(map[string]bool, len(labels))
	r := &Ring{points: make([]ringPoint, 0, len(labels)*virtualNodes)}
	for i, l := range labels {
		if l == "" {
			return nil, fmt.Errorf("shard: empty ring label")
		}
		if seen[l] {
			return nil, fmt.Errorf("shard: duplicate ring label %q", l)
		}
		seen[l] = true
		for v := 0; v < virtualNodes; v++ {
			r.points = append(r.points, ringPoint{hash: fnv1a(fmt.Sprintf("%s#%d", l, v)), member: i})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	return r, nil
}

// Lookup maps a key (worker ID) to its owning member's index: the first
// ring point clockwise of the key's hash.
func (r *Ring) Lookup(key string) int {
	h := fnv1a(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap around
	}
	return r.points[i].member
}

// fnv1a is the 64-bit FNV-1a hash (stdlib hash/fnv without the
// interface-allocation overhead on the Lookup path) with an avalanche
// finalizer. Raw FNV-1a is unusable for a hash ring: short keys that
// differ only in their last characters ("w0041" vs "w0042",
// "shard-0#7" vs "shard-0#8") hash into tight bands, so whole key
// populations land in one member's arc. The multiply–xor–shift finisher
// (MurmurHash3 fmix64) spreads those bands over the full uint64 space.
func fnv1a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
