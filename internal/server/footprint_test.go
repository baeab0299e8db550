// Footprint invalidation: a write to relation R leaves the cached
// answers and kept plans of queries that scan no R in place. The
// differential test races reads of R-only, C-only, R⋈C and identity
// queries against writes on R and C, assumes on a component holding
// both relations, and reloads; every answer must be the worlds oracle's
// at the version the response reports.
package server_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pw/internal/parse"
	"pw/internal/query"
	"pw/internal/rel"
	"pw/internal/server"
	"pw/internal/wsd"
)

// footprintBase holds independent R and C components, a certain C fact,
// and one component whose alternatives each hold an R and a C fact: an
// assume on its R fact decides its C fact too.
const footprintBase = `@wsd
  relation: R(2)
  relation: C(2)
  component:
    alt: R(k1 a)
    alt: R(k1 b)
  component:
    alt: R(k2 a)
    alt:
  component:
    alt: C(k1 x)
    alt: C(k1 y)
  component:
    alt: C(k2 x)
  component:
    alt: R(s a), C(s x)
    alt: R(s b), C(s y)
`

// footprintQueries read R only, C only, both, and (empty text, the
// identity) every relation.
var footprintQueries = []string{
	"@query r\n  out: A = R(k v)\n",
	"@query c\n  out: A = C(k w)\n",
	"@query rc\n  out: A = join(R(k v), C(k w))\n",
	"",
}

// footprintWrite draws one relation-scoped write on rel: an insert, a
// delete or a conditional update over keys that join across R and C.
func footprintWrite(rng *rand.Rand, rel string, vals []string) string {
	k := []string{"k1", "k2", "k3", "s"}[rng.Intn(4)]
	v := vals[rng.Intn(len(vals))]
	switch rng.Intn(3) {
	case 0:
		return fmt.Sprintf("@update\n  insert: %s(%s %s)\n", rel, k, v)
	case 1:
		return fmt.Sprintf("@update\n  delete: %s(%s *)\n", rel, k)
	}
	return fmt.Sprintf("@update\n  update: %s(%s *) set 2 = %s\n", rel, k, v)
}

// footprintAssumes are the world filters on the shared component, each
// deciding both its R and its C fact.
var footprintAssumes = []string{
	"@update\n  assume: R(s a)\n",
	"@update\n  assume: R(s b)\n",
	"@update\n  assume-not: R(s a)\n",
	"@update\n  assume: C(s y)\n",
}

// factKeys is the set of an instance's nonempty relations' facts.
func factKeys(inst *rel.Instance) []string {
	var out []string
	for _, r := range inst.Relations() {
		for _, f := range r.Facts() {
			out = append(out, r.Name+"("+strings.Join(f, " ")+")")
		}
	}
	slices.Sort(out)
	return out
}

// oracleFacts evaluates q over explicit worlds: the possible (union) or
// certain (intersection) answer facts.
func oracleFacts(t *testing.T, q query.Query, worlds []*rel.Instance, possible bool) []string {
	t.Helper()
	answers, err := query.EvalOnWorldSet(q, worlds)
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, a := range answers {
		for _, f := range factKeys(a) {
			count[f]++
		}
	}
	var out []string
	for f, n := range count {
		if possible || n == len(answers) {
			out = append(out, f)
		}
	}
	slices.Sort(out)
	return out
}

type footprintRead struct {
	version uint64
	query   int
	op      string
	facts   string
}

func TestFootprintInvalidationMatchesOracle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fp.pw")
	if err := os.WriteFile(path, []byte(footprintBase), 0o644); err != nil {
		t.Fatal(err)
	}
	s := server.New(server.Config{Workers: 2})
	if err := s.Open("fp", path); err != nil {
		t.Fatal(err)
	}
	src, err := parse.ParseSource(strings.NewReader(footprintBase))
	if err != nil {
		t.Fatal(err)
	}
	baseWorlds := src.WSD.Expand(0)

	// The writer alone mutates the database, so it knows the worlds
	// installed at every version; readers look them up after the run.
	worlds := map[uint64][]*rel.Instance{1: baseWorlds}

	const readers = 3
	var passes [readers]atomic.Int64
	stop := make(chan struct{})
	var mu sync.Mutex
	var reads []footprintRead
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for qi, q := range footprintQueries {
					for _, op := range []string{"poss-ans", "cert-ans"} {
						resp, err := s.Do(&server.Request{DB: "fp", Op: op, Query: q})
						if err != nil {
							t.Errorf("reader %d: %s %d: %v", i, op, qi, err)
							return
						}
						mu.Lock()
						reads = append(reads, footprintRead{resp.Version, qi, op, resp.Facts})
						mu.Unlock()
					}
				}
				passes[i].Add(1)
			}
		}(i)
	}
	// settle waits until every reader has finished a pass that started
	// after the last install, so each query is read at each version.
	settle := func() {
		var from [readers]int64
		for i := range passes {
			from[i] = passes[i].Load()
		}
		for i := range passes {
			for passes[i].Load() < from[i]+2 && !t.Failed() {
				time.Sleep(50 * time.Microsecond)
			}
		}
	}

	rng := rand.New(rand.NewSource(23))
	version, cur := uint64(1), baseWorlds
	assumes := 0
	for step := 0; step < 64; step++ {
		var text string
		switch step % 8 {
		case 0, 2, 5:
			text = footprintWrite(rng, "R", []string{"a", "b", "c"})
		case 1, 3, 6:
			text = footprintWrite(rng, "C", []string{"x", "y", "z"})
		case 4:
			for _, k := range rng.Perm(len(footprintAssumes)) {
				u, err := parse.ParseUpdate(strings.NewReader(footprintAssumes[k]))
				if err != nil {
					t.Fatal(err)
				}
				if len(wsd.ApplyUpdateToWorlds(cur, u)) > 0 {
					text = footprintAssumes[k]
					assumes++
					break
				}
			}
		case 7:
			if err := s.Reload("fp"); err != nil {
				t.Fatal(err)
			}
			version++
			cur = baseWorlds
			worlds[version] = cur
			settle()
			continue
		}
		if text == "" {
			continue
		}
		u, err := parse.ParseUpdate(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := s.Do(&server.Request{DB: "fp", Op: "write", Update: text})
		if err != nil {
			t.Fatalf("step %d: %s: %v", step, text, err)
		}
		version++
		if resp.Version != version {
			t.Fatalf("step %d: write installed version %d, want %d", step, resp.Version, version)
		}
		cur = wsd.ApplyUpdateToWorlds(cur, u)
		worlds[version] = cur
		settle()
	}
	close(stop)
	wg.Wait()
	if assumes == 0 {
		t.Fatal("no assume was applied; the test needs world filters")
	}

	queries := make([]query.Query, len(footprintQueries))
	for qi, text := range footprintQueries {
		queries[qi] = query.Identity{}
		if text != "" {
			qsrc, err := parse.ParseSource(strings.NewReader(text))
			if err != nil {
				t.Fatal(err)
			}
			queries[qi] = *qsrc.Query
		}
	}
	type oracleKey struct {
		version  uint64
		query    int
		possible bool
	}
	want := map[oracleKey][]string{}
	for _, r := range reads {
		k := oracleKey{r.version, r.query, r.op == "poss-ans"}
		if _, ok := want[k]; !ok {
			ws, ok := worlds[r.version]
			if !ok {
				t.Fatalf("read reports version %d, which no install produced", r.version)
			}
			want[k] = oracleFacts(t, queries[r.query], ws, k.possible)
		}
		got, err := parse.ParseInstance(strings.NewReader(r.facts))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(factKeys(got), want[k]) {
			t.Fatalf("%s of %q at version %d:\n got %v\nwant %v", r.op, footprintQueries[r.query], r.version, factKeys(got), want[k])
		}
	}
	if len(reads) < 64*len(footprintQueries)*2 {
		t.Fatalf("only %d reads checked", len(reads))
	}
}
