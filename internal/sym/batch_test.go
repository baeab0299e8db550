package sym

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"
)

// TestAppendConstsMatchesConst: the batch lookup appends after dst's
// prefix exactly the IDs Const gives, for known and new names mixed,
// and a second lookup of the same names allocates nothing.
func TestAppendConstsMatchesConst(t *testing.T) {
	known := Const("batch-known")
	names := [][]byte{[]byte("batch-known"), []byte("batch-new-1"), []byte(""), []byte("batch-new-2"), []byte("batch-new-1")}
	dst := AppendConsts([]ID{None}, names)
	if len(dst) != 1+len(names) || dst[0] != None {
		t.Fatalf("dst = %v, want the prefix kept and %d IDs appended", dst, len(names))
	}
	for i, n := range names {
		if want := Const(string(n)); dst[1+i] != want {
			t.Errorf("name %q: ID %v, Const says %v", n, dst[1+i], want)
		}
	}
	if dst[1] != known || dst[3] != 0 || dst[2] != dst[5] {
		t.Errorf("IDs %v: a known name, the empty name or a repeated new name resolved wrongly", dst)
	}
	buf := make([]ID, 0, len(names))
	if allocs := testing.AllocsPerRun(10, func() { buf = AppendConsts(buf[:0], names) }); allocs != 0 {
		t.Errorf("looking up %d interned names allocated %.0f times, want 0", len(names), allocs)
	}
}

// TestAppendConstsCopiesNewNames: a name first interned through the
// batch lookup is a copy, so the table pins none of the caller's bytes
// and rewriting them leaves the name as it was.
func TestAppendConstsCopiesNewNames(t *testing.T) {
	body := []byte("request body: batch-alias-probe")
	name := body[len("request body: "):]
	id := AppendConsts(nil, [][]byte{name})[0]
	got := id.Name()
	if p, base := uintptr(unsafe.Pointer(unsafe.StringData(got))), uintptr(unsafe.Pointer(&body[0])); p >= base && p < base+uintptr(len(body)) {
		t.Fatal("the interned name points into the caller's buffer")
	}
	copy(name, "XXXXXXXXXXXXXXXXX")
	if got := id.Name(); got != "batch-alias-probe" {
		t.Fatalf("after the caller rewrote its bytes the name reads %q", got)
	}
	if again, ok := LookupConst("batch-alias-probe"); !ok || again != id {
		t.Fatalf("LookupConst = %v, %v; want %v", again, ok, id)
	}
}

// TestConcurrentAppendConsts: goroutines batch-look-up lines mixing
// names interned before, names new to all of them and names only they
// use, each line in a buffer it rewrites for the next. Every ID must
// resolve to its name and every goroutine must get the same ID for a
// shared name.
func TestConcurrentAppendConsts(t *testing.T) {
	const workers, lines, perLine = 8, 300, 4
	old := Const("batch-race-old")
	run := ConstCount()          // fresh names on every run of a -count loop
	ids := make([][]ID, workers) // per worker: the IDs of the shared names, line by line
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf []byte
			var names [][]byte
			var got []ID
			for l := 0; l < lines; l++ {
				buf, names = buf[:0], names[:0]
				want := []string{
					"batch-race-old",
					fmt.Sprintf("batch-race-shared-%d-%d", run, l),
					fmt.Sprintf("batch-race-own-%d-%d-%d", run, w, l),
					fmt.Sprintf("batch-race-shared-%d-%d", run, l+1),
				}
				starts := make([]int, perLine+1)
				for i, n := range want {
					starts[i] = len(buf)
					buf = append(buf, n...)
				}
				starts[perLine] = len(buf)
				for i := range want {
					names = append(names, buf[starts[i]:starts[i+1]])
				}
				got = AppendConsts(got[:0], names)
				for i := range buf {
					buf[i] = '#'
				}
				for i, id := range got {
					if id.Name() != want[i] {
						t.Errorf("worker %d line %d: ID %v resolves to %q, want %q", w, l, id, id.Name(), want[i])
					}
				}
				if got[0] != old {
					t.Errorf("worker %d: a name interned before resolved to %v, want %v", w, got[0], old)
				}
				ids[w] = append(ids[w], got[1], got[3])
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range ids[0] {
			if ids[w][i] != ids[0][i] {
				t.Fatalf("workers 0 and %d got IDs %v and %v for one shared name", w, ids[0][i], ids[w][i])
			}
		}
	}
}
