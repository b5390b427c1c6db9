package cluster

import (
	"fmt"
	"testing"

	"github.com/htacs/ata/internal/obs"
)

// The gateway's ring is shard.Ring over "node-<name>" labels (nodeRing);
// these tests hold the cluster-level properties of that placement, read
// the way the gateway reads it: order[ring.Lookup(workerID)].

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("w%06d", i)
	}
	return keys
}

// nodeOwners maps every key to its owning node name over the sorted
// member names, as Gateway.owner does.
func nodeOwners(t *testing.T, names, keys []string) []string {
	t.Helper()
	r, err := nodeRing(names)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = names[r.Lookup(k)]
	}
	return out
}

// TestRingValidation: the gateway refuses a member list the ring cannot
// be built over — empty, an unnamed member, a duplicate — keeps its
// members sorted, and a ring with no live member left is nil.
func TestRingValidation(t *testing.T) {
	for _, peers := range [][]PeerSpec{
		nil,
		{{Name: "a", URL: "http://127.0.0.1:1"}, {Name: "", URL: "http://127.0.0.1:2"}},
		{{Name: "a", URL: "http://127.0.0.1:1"}, {Name: "a", URL: "http://127.0.0.1:2"}},
	} {
		gw, err := NewGateway(GatewayConfig{Peers: peers, HeartbeatInterval: -1, Registry: obs.NewRegistry()})
		if err == nil {
			gw.Close()
			t.Errorf("NewGateway(%v) accepted", peers)
		}
	}
	gw, err := NewGateway(GatewayConfig{
		Peers:             []PeerSpec{{Name: "b", URL: "http://127.0.0.1:1"}, {Name: "a", URL: "http://127.0.0.1:2"}},
		HeartbeatInterval: -1,
		Registry:          obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	if got := gw.order; len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("members = %v, want [a b]", got)
	}
	if r, err := nodeRing(nil); r != nil || err != nil {
		t.Errorf("nodeRing(nil) = %v, %v; want no ring", r, err)
	}
	if _, err := nodeRing([]string{"a", "a"}); err == nil {
		t.Error("nodeRing accepted a duplicate member")
	}
}

// TestRingOwnershipBalanced is the balance property: at every cluster
// size, the busiest node owns at most 2.5× the quietest node's workers.
// A blowup here means the point hashing regressed into the banding
// problem the fmix64 finalizer exists to fix.
func TestRingOwnershipBalanced(t *testing.T) {
	keys := ringKeys(20000)
	for _, n := range []int{2, 3, 4, 8} {
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("n%d", i)
		}
		counts := make(map[string]int, n)
		for _, o := range nodeOwners(t, names, keys) {
			counts[o]++
		}
		lo, hi := len(keys), 0
		for _, name := range names {
			lo, hi = min(lo, counts[name]), max(hi, counts[name])
		}
		if lo == 0 {
			t.Fatalf("n=%d: a node owns zero keys: %v", n, counts)
		}
		if ratio := float64(hi) / float64(lo); ratio > 2.5 {
			t.Errorf("n=%d: ownership ratio max/min = %.2f (%v)", n, ratio, counts)
		}
	}
}

// TestRingJoinMovesMinimalFraction: a node joining takes roughly its fair
// share (1/4 here) of the workers, and no worker moves between two nodes
// that were there before.
func TestRingJoinMovesMinimalFraction(t *testing.T) {
	keys := ringKeys(20000)
	before := nodeOwners(t, []string{"n0", "n1", "n2"}, keys)
	after := nodeOwners(t, []string{"n0", "n1", "n2", "n3"}, keys)
	moved := 0
	for i, k := range keys {
		if after[i] == before[i] {
			continue
		}
		if after[i] != "n3" {
			t.Fatalf("key %s moved %s -> %s, not to the joiner", k, before[i], after[i])
		}
		moved++
	}
	// Allow generous slack for vnode placement, but reject both a no-op
	// join and a mass reshuffle.
	if frac := float64(moved) / float64(len(keys)); frac < 0.10 || frac > 0.45 {
		t.Errorf("join moved %.1f%% of keys, want ~25%%", 100*frac)
	}
}

// TestRingLookupDeterministic: the gateway's ring is a pure function of
// its member set — gateways configured with the same peers in different
// orders place every worker on the same node.
func TestRingLookupDeterministic(t *testing.T) {
	owners := func(names ...string) []string {
		specs := make([]PeerSpec, len(names))
		for i, n := range names {
			specs[i] = PeerSpec{Name: n, URL: "http://127.0.0.1:1"}
		}
		gw, err := NewGateway(GatewayConfig{Peers: specs, HeartbeatInterval: -1, Registry: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		defer gw.Close()
		out := make([]string, 2000)
		for i := range out {
			p, err := gw.owner(fmt.Sprintf("w%06d", i))
			if err != nil {
				t.Fatal(err)
			}
			out[i] = p.name
		}
		return out
	}
	a, b := owners("x", "y", "z"), owners("z", "x", "y")
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order-dependent ownership for w%06d: %s vs %s", i, a[i], b[i])
		}
	}
}
