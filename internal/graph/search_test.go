package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestSearchMatchesBFSTree: every path the resumable search returns — at any
// point of a root's destination sequence, across restarts, and across the
// epoch wrap — is the full tree's path, nil included.
func TestSearchMatchesBFSTree(t *testing.T) {
	sparse := New(70) // 50 random edges: several components, isolated nodes
	for r := rand.New(rand.NewSource(3)); sparse.M() < 50; {
		if u, v := NodeID(r.Intn(70)), NodeID(r.Intn(70)); u != v {
			sparse.MustAddEdge(u, v)
		}
	}
	if sparse.Connected() {
		t.Fatal("sparse scenario graph must be disconnected")
	}
	cases := []struct {
		name  string
		g     *Graph
		epoch uint32 // stamp the search starts from
	}{
		{"connected", GNP(60, 0.1, 7), 0},
		{"tree", RandomTree(120, 3), 0},
		{"sparse-disconnected", sparse, 0},
		{"single-node", New(1), 0},
		{"empty", New(0), 0},
		{"epoch-wrap", sparse, math.MaxUint32 - 3},
	}
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(11))
		n := tc.g.N()
		s := NewSearch(tc.g)
		if got := s.PathTo(nil, 0); got != nil {
			t.Fatalf("%s: rootless search returned %v", tc.name, got)
		}
		if tc.epoch != 0 {
			s.Restart(0) // sizes the stamps, so the planted epoch survives the next Restart
			s.epoch = tc.epoch
		}
		var buf []NodeID
		for restart := 0; restart < 40; restart++ {
			root := NodeID(rng.Intn(n+2) - 1) // None and n are out of range
			s.Restart(root)
			tree := tc.g.BFSTree(root)
			for k := rng.Intn(8); k >= 0; k-- {
				dst := NodeID(rng.Intn(n+2) - 1)
				if k%3 == 0 {
					dst = root
				}
				buf = s.PathTo(buf[:0], dst)
				if want := tree.PathFromRoot(dst); !slices.Equal(buf, want) || (buf == nil) != (want == nil) {
					t.Fatalf("%s: restart %d root %d dst %d: path %v, want %v", tc.name, restart, root, dst, buf, want)
				}
			}
		}
		if tc.epoch != 0 && s.epoch >= tc.epoch {
			t.Fatalf("%s: epoch %d never wrapped from %d", tc.name, s.epoch, tc.epoch)
		}
	}
}

// TestSearchStopsAtDiscovery: asking for a neighbor of the root must not
// expand past the root, and a later, farther destination resumes rather than
// starts over.
func TestSearchStopsAtDiscovery(t *testing.T) {
	g := Path(10)
	s := NewSearch(g)
	s.Restart(0)
	if s.PathTo(nil, 1); s.head != 1 {
		t.Fatalf("scanned %d nodes to find the root's neighbor, want 1", s.head)
	}
	if s.PathTo(nil, 4); s.head != 4 {
		t.Fatalf("scanned %d nodes to find node 4, want 4", s.head)
	}
	if s.PathTo(nil, 2); s.head != 4 {
		t.Fatalf("an already discovered destination advanced the scan to %d", s.head)
	}
}
