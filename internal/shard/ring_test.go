package shard

import (
	"fmt"
	"strings"
	"testing"
)

// shardLabels are the engine's ring labels for n shards.
func shardLabels(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("shard-%d", i)
	}
	return out
}

// nodeLabels are the gateway's ring labels over sorted member names.
func nodeLabels(names ...string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = "node-" + n
	}
	return out
}

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("w%06d", i)
	}
	return keys
}

func mustRing(t *testing.T, labels []string) *Ring {
	t.Helper()
	r, err := NewRing(labels)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRingValidation(t *testing.T) {
	for _, labels := range [][]string{nil, {"a", ""}, {"a", "a"}} {
		if _, err := NewRing(labels); err == nil {
			t.Errorf("NewRing(%q) accepted", labels)
		}
	}
	mustRing(t, shardLabels(3))
}

// TestRingLookupDeterministicAndTotal: the ring is a pure function of its
// labels — two independently built rings agree on every key, and every
// key maps to a member index.
func TestRingLookupDeterministicAndTotal(t *testing.T) {
	a, b := mustRing(t, shardLabels(4)), mustRing(t, shardLabels(4))
	for _, key := range ringKeys(2000) {
		s := a.Lookup(key)
		if s < 0 || s >= 4 {
			t.Fatalf("Lookup(%q) = %d outside [0,4)", key, s)
		}
		if again := b.Lookup(key); again != s {
			t.Fatalf("Lookup(%q): %d on one ring, %d on an identical one", key, s, again)
		}
	}
}

// TestRingBalance is the balance bound: at every size, under both label
// schemes, the busiest member owns at most 2.5× the quietest member's
// keys. A blowup here means the point hashing regressed into the banding
// problem the fmix64 finalizer exists to fix.
func TestRingBalance(t *testing.T) {
	keys := ringKeys(20000)
	for _, n := range []int{2, 3, 4, 8} {
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("n%d", i)
		}
		for _, labels := range [][]string{shardLabels(n), nodeLabels(names...)} {
			r := mustRing(t, labels)
			counts := make([]int, n)
			for _, k := range keys {
				counts[r.Lookup(k)]++
			}
			lo, hi := len(keys), 0
			for _, c := range counts {
				lo, hi = min(lo, c), max(hi, c)
			}
			if lo == 0 || float64(hi)/float64(lo) > 2.5 {
				t.Errorf("%s…: ownership %v, max/min beyond 2.5", labels[0], counts)
			}
		}
	}
}

// owners maps every key to its owner's label.
func owners(r *Ring, labels, keys []string) []string {
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = labels[r.Lookup(k)]
	}
	return out
}

// TestRingResizeMovesFewKeys is the consistent-hashing property the ring
// exists for: a joining member takes roughly its fair share of the keys,
// and no key moves between two members that were there before.
func TestRingResizeMovesFewKeys(t *testing.T) {
	keys := ringKeys(20000)
	for _, tc := range []struct{ before, after []string }{
		{shardLabels(4), shardLabels(5)},
		{nodeLabels("n0", "n1", "n2"), nodeLabels("n0", "n1", "n2", "n3")},
	} {
		joiner := tc.after[len(tc.after)-1]
		old := owners(mustRing(t, tc.before), tc.before, keys)
		now := owners(mustRing(t, tc.after), tc.after, keys)
		moved := 0
		for i := range keys {
			if now[i] == old[i] {
				continue
			}
			if now[i] != joiner {
				t.Fatalf("key %s moved %s -> %s, not to the joiner", keys[i], old[i], now[i])
			}
			moved++
		}
		// Fair share is 1/len(after); allow slack for vnode placement,
		// but reject both a no-op join and a mass reshuffle.
		fair := 1 / float64(len(tc.after))
		if frac := float64(moved) / float64(len(keys)); frac < fair/2 || frac > fair*1.75 {
			t.Errorf("%s joining moved %.1f%% of keys, fair share %.1f%%", joiner, 100*frac, 100*fair)
		}
	}
}

// TestRingLeaveMovesOnlyDepartedKeys: removing a member reassigns exactly
// the keys it owned; every key owned by a survivor keeps its owner. This
// is what bounds a failover requeue to the dead node's tasks.
func TestRingLeaveMovesOnlyDepartedKeys(t *testing.T) {
	keys := ringKeys(10000)
	full := nodeLabels("n0", "n1", "n2", "n3")
	left := nodeLabels("n0", "n1", "n3")
	old := owners(mustRing(t, full), full, keys)
	now := owners(mustRing(t, left), left, keys)
	moved := 0
	for i, k := range keys {
		if old[i] == "node-n2" {
			moved++
			continue
		}
		if now[i] != old[i] {
			t.Fatalf("key %s moved %s -> %s though its owner survived", k, old[i], now[i])
		}
	}
	if moved == 0 {
		t.Fatal("departed member owned no keys")
	}
}

// TestRingGoldenPlacement pins the owners of 200 worker IDs under the
// engine's labels for 4 shards and the gateway's labels for nodes a, b
// and c. The tables were computed with the engine's and the gateway's
// separate rings before they became this one, so every worker keeps its
// shard and its node; any change here re-partitions deployed state.
func TestRingGoldenPlacement(t *testing.T) {
	const (
		shards = "33233133032230333210020222200203012022113031212222333303112112221032002112132331132220223301213313223032020303033102333111110021030330020202022133130310112033112333330222231030120023302230223223130021"
		nodes  = "acbcbbacccacccaacbbaabbbbcbaacabbbcbbbabaabaccababcbaaacbaaabbcbbccbacaabbbaccabcabaccbccacacbbbacbaccbbabaacacaccbbbbcaaabbbccbccccccacaccaccbbaacbabbbcacbbbbacbacbbbaccbbacbabbaccccbcbcabbbacbacccbb"
	)
	ids := make([]string, 200)
	for i := 0; i < 100; i++ {
		ids[i], ids[100+i] = fmt.Sprintf("w%04d", i), fmt.Sprintf("worker-%d", i*37)
	}
	var gotShards, gotNodes strings.Builder
	sr := mustRing(t, shardLabels(4))
	nr := mustRing(t, nodeLabels("a", "b", "c"))
	for _, id := range ids {
		fmt.Fprintf(&gotShards, "%d", sr.Lookup(id))
		gotNodes.WriteByte("abc"[nr.Lookup(id)])
	}
	if gotShards.String() != shards {
		t.Errorf("shard placement changed:\n got %s\nwant %s", gotShards.String(), shards)
	}
	if gotNodes.String() != nodes {
		t.Errorf("node placement changed:\n got %s\nwant %s", gotNodes.String(), nodes)
	}
}
