package unionfind

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicUnionFind(t *testing.T) {
	u := New()
	u.Add("a")
	u.Add("b")
	u.Add("c")
	if u.Same("a", "b") {
		t.Error("fresh keys must be in distinct classes")
	}
	u.Union("a", "b")
	if !u.Same("a", "b") {
		t.Error("union failed")
	}
	if u.Same("a", "c") {
		t.Error("unrelated keys merged")
	}
	u.Union("b", "c")
	if !u.Same("a", "c") {
		t.Error("transitivity broken")
	}
}

func TestFindAddsKey(t *testing.T) {
	u := New()
	if u.Find("ghost") != "ghost" {
		t.Error("Find of a fresh key should return itself")
	}
	if u.Len() != 1 {
		t.Error("Find must add the key")
	}
}

func TestUnionIdempotent(t *testing.T) {
	u := New()
	u.Union("a", "b")
	r1 := u.Find("a")
	u.Union("a", "b")
	if u.Find("a") != r1 {
		t.Error("repeated union changed the representative")
	}
}

func TestCloneIndependence(t *testing.T) {
	u := New()
	u.Union("a", "b")
	c := u.Clone()
	c.Union("a", "z")
	if u.Same("a", "z") {
		t.Error("clone shares state with original")
	}
	if !c.Same("a", "b") {
		t.Error("clone lost state")
	}
}

func TestClasses(t *testing.T) {
	u := New()
	u.Union("a", "b")
	u.Union("c", "d")
	u.Add("e")
	cl := u.Classes()
	if len(cl) != 3 {
		t.Fatalf("want 3 classes, got %d: %v", len(cl), cl)
	}
	sizes := map[int]int{}
	for _, members := range cl {
		sizes[len(members)]++
	}
	if sizes[2] != 2 || sizes[1] != 1 {
		t.Errorf("class sizes wrong: %v", cl)
	}
}

// TestAgainstNaivePartition drives random unions and compares Same against
// a naive partition refinement.
func TestAgainstNaivePartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
		u := New()
		naive := map[string]int{}
		for i, k := range keys {
			naive[k] = i
		}
		for step := 0; step < 12; step++ {
			x := keys[rng.Intn(len(keys))]
			y := keys[rng.Intn(len(keys))]
			u.Union(x, y)
			gx, gy := naive[x], naive[y]
			for k, g := range naive {
				if g == gy {
					naive[k] = gx
				}
			}
		}
		for _, x := range keys {
			for _, y := range keys {
				if u.Same(x, y) != (naive[x] == naive[y]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestDenseReset: a reset forest is n singletons again, whatever it
// held, and unions after the reset behave as on a fresh forest.
func TestDenseReset(t *testing.T) {
	d := NewDense(6)
	d.Union(0, 1)
	d.Union(2, 3)
	d.Union(1, 3)
	for _, n := range []int{4, 9} {
		d.Reset(n)
		if d.Len() != n {
			t.Fatalf("Reset(%d): Len %d", n, d.Len())
		}
		for a := int32(0); a < int32(n); a++ {
			for b := a + 1; b < int32(n); b++ {
				if d.Same(a, b) {
					t.Fatalf("Reset(%d): %d and %d still share a class", n, a, b)
				}
			}
		}
		d.Union(0, int32(n-1))
		if !d.Same(0, int32(n-1)) || d.Same(0, 1) {
			t.Fatalf("Reset(%d): a union after the reset joined the wrong classes", n)
		}
	}
}
