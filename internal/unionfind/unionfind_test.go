package unionfind

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicUnionFind(t *testing.T) {
	u := NewDense(3)
	if u.Same(0, 1) {
		t.Error("fresh nodes must be in distinct classes")
	}
	u.Union(0, 1)
	if !u.Same(0, 1) {
		t.Error("union failed")
	}
	if u.Same(0, 2) {
		t.Error("unrelated nodes merged")
	}
	u.Union(1, 2)
	if !u.Same(0, 2) {
		t.Error("transitivity broken")
	}
	u.Grow(4)
	if u.Len() != 4 || u.Find(3) != 3 || u.Same(0, 3) {
		t.Error("Grow must add singleton nodes")
	}
}

func TestUnionIdempotent(t *testing.T) {
	u := NewDense(2)
	u.Union(0, 1)
	r1 := u.Find(0)
	if u.Union(0, 1) != r1 || u.Find(0) != r1 {
		t.Error("repeated union changed the representative")
	}
}

// TestAgainstNaivePartition drives random unions and compares Same against
// a naive partition refinement.
func TestAgainstNaivePartition(t *testing.T) {
	const n = 8
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		u := NewDense(n)
		var naive [n]int
		for i := range naive {
			naive[i] = i
		}
		for step := 0; step < 12; step++ {
			x, y := int32(rng.Intn(n)), int32(rng.Intn(n))
			u.Union(x, y)
			gx, gy := naive[x], naive[y]
			for k, g := range naive {
				if g == gy {
					naive[k] = gx
				}
			}
		}
		for x := int32(0); x < n; x++ {
			for y := int32(0); y < n; y++ {
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
