package hashring

import (
	"fmt"
	"testing"
	"testing/quick"
)

func nodes(n int) []string {
	var out []string
	for i := 0; i < n; i++ {
		out = append(out, fmt.Sprintf("machine-%02d", i))
	}
	return out
}

func TestLookupIsDeterministic(t *testing.T) {
	r1 := New(nodes(5), 0)
	r2 := New(nodes(5), 0)
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("key-%d", i)
		if r1.Lookup(k) != r2.Lookup(k) {
			t.Fatalf("rings disagree on %s", k)
		}
	}
}

func TestLookupEmptyRing(t *testing.T) {
	r := New(nil, 0)
	if got := r.Lookup("k"); got != "" {
		t.Fatalf("Lookup on empty ring = %q, want empty", got)
	}
}

func TestLookupSpreadsKeys(t *testing.T) {
	r := New(nodes(4), 0)
	counts := map[string]int{}
	const total = 4000
	for i := 0; i < total; i++ {
		counts[r.Lookup(fmt.Sprintf("key-%d", i))]++
	}
	if len(counts) != 4 {
		t.Fatalf("keys landed on %d nodes, want 4", len(counts))
	}
	for n, c := range counts {
		if c < total/4/3 {
			t.Fatalf("node %s got only %d of %d keys — distribution too skewed", n, c, total)
		}
	}
}

func TestDisableMovesOnlyOwnedKeys(t *testing.T) {
	r := New(nodes(8), 0)
	before := map[string]string{}
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("key-%d", i)
		before[k] = r.Lookup(k)
	}
	const victim = "machine-03"
	r.Disable(victim)
	moved, stayed := 0, 0
	for k, owner := range before {
		now := r.Lookup(k)
		if owner == victim {
			if now == victim {
				t.Fatalf("key %s still routed to disabled node", k)
			}
			moved++
			continue
		}
		if now != owner {
			t.Fatalf("key %s moved from %s to %s although its owner is alive", k, owner, now)
		}
		stayed++
	}
	if moved == 0 {
		t.Fatal("no keys were owned by victim; test is vacuous")
	}
	if stayed == 0 {
		t.Fatal("every key moved; ring is not consistent")
	}
}

func TestEnableRestoresOriginalAssignment(t *testing.T) {
	r := New(nodes(5), 0)
	before := map[string]string{}
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("key-%d", i)
		before[k] = r.Lookup(k)
	}
	r.Disable("machine-01")
	r.Enable("machine-01")
	for k, owner := range before {
		if got := r.Lookup(k); got != owner {
			t.Fatalf("key %s: %s after enable, want %s", k, got, owner)
		}
	}
}

func TestAllNodesDisabled(t *testing.T) {
	r := New(nodes(2), 0)
	r.Disable("machine-00")
	r.Disable("machine-01")
	if got := r.Lookup("k"); got != "" {
		t.Fatalf("Lookup with all nodes down = %q, want empty", got)
	}
}

func TestLookupRouteSeparatesFunctions(t *testing.T) {
	r := New(nodes(8), 0)
	diff := 0
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("key-%d", i)
		if r.LookupRoute("map1", k) != r.LookupRoute("update1", k) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("routing ignores the destination function")
	}
}

func TestLookupNReturnsDistinctLiveNodes(t *testing.T) {
	r := New(nodes(5), 0)
	reps := r.AppendN(nil, Hash("some-key"), 3)
	if len(reps) != 3 {
		t.Fatalf("AppendN returned %d nodes, want 3", len(reps))
	}
	seen := map[string]bool{}
	for _, n := range reps {
		if seen[n] {
			t.Fatalf("duplicate replica %s", n)
		}
		seen[n] = true
	}
}

func TestLookupNSkipsDisabled(t *testing.T) {
	r := New(nodes(4), 0)
	full := r.AppendN(nil, Hash("k"), 4)
	r.Disable(full[0])
	reps := r.AppendN(nil, Hash("k"), 3)
	for _, n := range reps {
		if n == full[0] {
			t.Fatalf("disabled node %s appears in replica set", n)
		}
	}
}

func TestLookupNMoreThanNodes(t *testing.T) {
	r := New(nodes(2), 0)
	if got := r.AppendN(nil, Hash("k"), 5); len(got) != 2 {
		t.Fatalf("AppendN(5) on 2 nodes returned %d", len(got))
	}
}

func TestNodesExcludesDisabled(t *testing.T) {
	r := New(nodes(3), 0)
	r.Disable("machine-01")
	live := r.Nodes()
	if len(live) != 2 {
		t.Fatalf("Nodes = %v, want 2 live", live)
	}
	for _, n := range live {
		if n == "machine-01" {
			t.Fatal("disabled node listed as live")
		}
	}
	if r.Size() != 3 {
		t.Fatalf("Size = %d, want 3 (includes disabled)", r.Size())
	}
}

func TestAddIsIdempotent(t *testing.T) {
	r := New(nodes(2), 8)
	r.Add("machine-00")
	if r.Size() != 2 {
		t.Fatalf("Size after duplicate Add = %d, want 2", r.Size())
	}
}

func TestPropertyLookupAlwaysReturnsMember(t *testing.T) {
	r := New(nodes(6), 0)
	members := map[string]bool{}
	for _, n := range nodes(6) {
		members[n] = true
	}
	f := func(key string) bool {
		return members[r.Lookup(key)]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyConsistencyUnderFailure(t *testing.T) {
	// For any key, disabling an unrelated node never changes the key's owner.
	f := func(key string, victimIdx uint8) bool {
		r := New(nodes(6), 32)
		owner := r.Lookup(key)
		victim := fmt.Sprintf("machine-%02d", int(victimIdx)%6)
		if victim == owner {
			return true // key is allowed to move
		}
		r.Disable(victim)
		return r.Lookup(key) == owner
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// A pair hashes to the position of the two strings joined around the
// separator, so a caller may route a composite key without composing it
// and land where the composed key always has.
func TestHashPairIsTheJoinedKeysHash(t *testing.T) {
	for _, p := range [][2]string{{"", ""}, {"user1", "U1"}, {"k", ""}, {"", "col"}, {"a\x00b", "c"}} {
		if got, want := HashPair(p[0], 0, p[1]), hash64(p[0]+"\x00"+p[1]); got != want {
			t.Fatalf("HashPair(%q, 0, %q) = %x, hash of the joined key %x", p[0], p[1], got, want)
		}
	}
}
