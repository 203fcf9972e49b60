package ring

import (
	"fmt"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("R:title,movie_keyword|J:a=b|P:year >= %d", i)
	}
	return out
}

func TestLookupDeterministicAndOrderIndependent(t *testing.T) {
	a, err := New([]string{"r1", "r2", "r3"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New([]string{"r3", "r1", "r2"})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys(200) {
		if a.Lookup(k) != b.Lookup(k) {
			t.Fatalf("key %q routes to %s vs %s depending on construction order", k, a.Lookup(k), b.Lookup(k))
		}
	}
}

func TestDistributionRoughlyEven(t *testing.T) {
	r, err := New([]string{"r1", "r2", "r3", "r4"})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const n = 4000
	for _, k := range keys(n) {
		counts[r.Lookup(k)]++
	}
	for node, c := range counts {
		frac := float64(c) / n
		if frac < 0.10 || frac > 0.45 {
			t.Errorf("node %s owns %.1f%% of keys (counts: %v)", node, 100*frac, counts)
		}
	}
	if len(counts) != 4 {
		t.Fatalf("only %d of 4 nodes own keys: %v", len(counts), counts)
	}
}

// TestMinimalMovement pins the consistent-hashing property the sharded plan
// cache depends on: removing one node only moves the keys that node owned.
func TestMinimalMovement(t *testing.T) {
	full, err := New([]string{"r1", "r2", "r3", "r4"})
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := New([]string{"r1", "r2", "r4"})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys(2000) {
		before := full.Lookup(k)
		after := reduced.Lookup(k)
		if before != "r3" && after != before {
			t.Fatalf("key %q moved %s -> %s although its owner survived", k, before, after)
		}
		if before == "r3" && after == "r3" {
			t.Fatalf("key %q still routed to removed node", k)
		}
	}
}

// TestSequenceFailoverOrder pins that the failover sequence starts at the
// owner, covers every node exactly once, and that dropping the owner from
// the fleet routes the key to its failover successor.
func TestSequenceFailoverOrder(t *testing.T) {
	nodes := []string{"r1", "r2", "r3"}
	r, err := New(nodes)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys(100) {
		seq := r.Sequence(k)
		if len(seq) != len(nodes) {
			t.Fatalf("sequence %v does not cover the fleet", seq)
		}
		if seq[0] != r.Lookup(k) {
			t.Fatalf("sequence %v does not start at the owner %s", seq, r.Lookup(k))
		}
		seen := map[string]bool{}
		for _, n := range seq {
			if seen[n] {
				t.Fatalf("sequence %v repeats %s", seq, n)
			}
			seen[n] = true
		}
		var survivors []string
		for _, n := range nodes {
			if n != seq[0] {
				survivors = append(survivors, n)
			}
		}
		rr, err := New(survivors)
		if err != nil {
			t.Fatal(err)
		}
		if got := rr.Lookup(k); got != seq[1] {
			t.Fatalf("after removing owner %s, key routes to %s, want failover successor %s", seq[0], got, seq[1])
		}
	}
}

func TestNewRejectsBadFleets(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("empty fleet accepted")
	}
	if _, err := New([]string{"r1", "r1"}); err == nil {
		t.Error("duplicate node accepted")
	}
}
