package main

import "testing"

func TestDeriveSeeds(t *testing.T) {
	a, b := deriveSeeds(1), deriveSeeds(1)
	if a != b {
		t.Fatalf("deriveSeeds(1) not deterministic: %+v vs %+v", a, b)
	}
	c := deriveSeeds(2)
	if a.Tree == c.Tree || a.History == c.History || a.Traffic == c.Traffic {
		t.Errorf("seeds 1 and 2 share a derived seed: %+v vs %+v", a, c)
	}
	if a.Tree == a.History || a.History == a.Traffic {
		t.Errorf("derived seeds of one run coincide: %+v", a)
	}
}

// The same seed offers the same operation sequence; another seed a
// different one.
func TestOpDigestFollowsSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three workspaces")
	}
	digest := func(seed int64) string {
		s := deriveSeeds(seed)
		built, err := s.workspace().Build()
		if err != nil {
			t.Fatal(err)
		}
		return opDigest(s, built.WindowIDs)
	}
	first, again, other := digest(7), digest(7), digest(8)
	if first != again {
		t.Errorf("seed 7 gave digests %s and %s", first, again)
	}
	if first == other {
		t.Errorf("seeds 7 and 8 gave the same digest %s", first)
	}
}
