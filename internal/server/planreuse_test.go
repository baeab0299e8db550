// Plan reuse: a prepared query keeps the planner's decision for the
// database and effective version it was made at, and a later answer
// miss there evaluates the kept form without planning. The tests run
// with the answer cache disabled, so each repeat is a miss that reaches
// the evaluator (one test also checks the cache beside it).
package server_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pw/internal/obs"
	"pw/internal/parse"
	"pw/internal/rel"
	"pw/internal/server"
)

// chainQuery joins three relations; the planner reorders the join
// toward the smaller operands, so its decision depends on the data.
const chainQuery = "@query chain\n  out: A = join(join(R(x y), S(y z)), T(z w))\n"

// chainDB is a decomposition for chainQuery with nr independent R
// components and nt independent T components around one S component.
// chainDB(6, 1) makes the planner reorder; chainDB(1, 6) keeps the
// written order.
func chainDB(nr, nt int) string {
	var b strings.Builder
	b.WriteString("@wsd\n  relation: R(2)\n  relation: S(2)\n  relation: T(2)\n")
	for i := 0; i < nr; i++ {
		fmt.Fprintf(&b, "  component:\n    alt: R(r%d k)\n    alt: R(r%d m)\n", i, i)
	}
	b.WriteString("  component:\n    alt: S(k j)\n    alt: S(m j)\n")
	for i := 0; i < nt; i++ {
		fmt.Fprintf(&b, "  component:\n    alt: T(j t%d)\n    alt: T(n t%d)\n", i, i)
	}
	return b.String()
}

// openChain writes a chainDB file and opens it under name.
func openChain(t *testing.T, s *server.Server, name string, nr, nt int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name+".pw")
	if err := os.WriteFile(path, []byte(chainDB(nr, nt)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Open(name, path); err != nil {
		t.Fatal(err)
	}
	return path
}

// explainMiss runs one traced, explained answer request that must miss
// the answer cache, returning the response.
func explainMiss(t *testing.T, s *server.Server, db, op string) *server.Response {
	t.Helper()
	resp, _ := postQuery(t, s, "/query?trace=1&explain=1", &server.Request{DB: db, Op: op, Query: chainQuery})
	if resp.Cached {
		t.Fatalf("%s %s: answered from the cache; the test needs a miss", db, op)
	}
	if resp.Plan == nil || resp.Plan.Planner == nil {
		t.Fatalf("%s %s: no planner record in the explain plan", db, op)
	}
	return resp
}

// wantReuse checks the plan_reused counter of a response.
func wantReuse(t *testing.T, label string, resp *server.Response, want int64) {
	t.Helper()
	if got := resp.Cost["plan_reused"]; got != want {
		t.Errorf("%s: plan_reused = %d, want %d", label, got, want)
	}
}

func TestPlanReusedAtSameVersion(t *testing.T) {
	s := server.New(server.Config{Workers: 1, CacheSize: -1})
	openChain(t, s, "a", 6, 1)

	first := explainMiss(t, s, "a", "poss-ans")
	wantReuse(t, "first miss", first, 0)
	if !first.Plan.Planner.Changed() {
		t.Fatalf("planner kept the written form %q; the test needs a rewrite", first.Plan.Planner.Chosen)
	}
	second := explainMiss(t, s, "a", "poss-ans")
	wantReuse(t, "second miss", second, 1)
	if *second.Plan.Planner != *first.Plan.Planner {
		t.Errorf("reused planner record %+v, first %+v", *second.Plan.Planner, *first.Plan.Planner)
	}
	if second.Facts != first.Facts {
		t.Errorf("reused decision answers\n%s\nfirst answers\n%s", second.Facts, first.Facts)
	}
	// cert-ans on the same prepared query and version shares the decision.
	wantReuse(t, "cert-ans miss", explainMiss(t, s, "a", "cert-ans"), 1)
}

func TestPlanReplannedAfterWriteAndReload(t *testing.T) {
	s := server.New(server.Config{Workers: 1, CacheSize: -1})
	openChain(t, s, "a", 6, 1)
	explainMiss(t, s, "a", "poss-ans")
	wantReuse(t, "before write", explainMiss(t, s, "a", "poss-ans"), 1)

	do(t, s, &server.Request{DB: "a", Op: "write", Update: "@update\n  insert: R(mark k)\n"})
	afterWrite := explainMiss(t, s, "a", "poss-ans")
	wantReuse(t, "first miss after write", afterWrite, 0)
	if afterWrite.Version != 2 || !strings.Contains(afterWrite.Facts, "mark") {
		t.Fatalf("read after write at version %d:\n%s", afterWrite.Version, afterWrite.Facts)
	}
	wantReuse(t, "second miss after write", explainMiss(t, s, "a", "poss-ans"), 1)

	if err := s.Reload("a"); err != nil {
		t.Fatal(err)
	}
	afterReload := explainMiss(t, s, "a", "poss-ans")
	wantReuse(t, "first miss after reload", afterReload, 0)
	if afterReload.Version != 3 || strings.Contains(afterReload.Facts, "mark") {
		t.Fatalf("read after reload at version %d:\n%s", afterReload.Version, afterReload.Facts)
	}
	wantReuse(t, "second miss after reload", explainMiss(t, s, "a", "poss-ans"), 1)
}

// TestWriteToUnscannedRelationKeepsAnswerAndPlan: chainQuery scans R,
// S and T, so a write to C leaves its cached answer in place and, with
// the answer cache off, lets the next miss reuse the kept plan; a write
// to R does neither.
func TestWriteToUnscannedRelationKeepsAnswerAndPlan(t *testing.T) {
	db := strings.Replace(chainDB(6, 1), "  relation: T(2)\n", "  relation: T(2)\n  relation: C(1)\n", 1) +
		"  component:\n    alt: C(on)\n    alt: C(off)\n"
	path := filepath.Join(t.TempDir(), "c.pw")
	if err := os.WriteFile(path, []byte(db), 0o644); err != nil {
		t.Fatal(err)
	}
	const writeC = "@update\n  update: C(on) set 1 = off\n"
	const writeR = "@update\n  insert: R(mark k)\n"

	cached := server.New(server.Config{Workers: 1})
	if err := cached.Open("a", path); err != nil {
		t.Fatal(err)
	}
	first := do(t, cached, &server.Request{DB: "a", Op: "poss-ans", Query: chainQuery})
	do(t, cached, &server.Request{DB: "a", Op: "write", Update: writeC})
	afterC := do(t, cached, &server.Request{DB: "a", Op: "poss-ans", Query: chainQuery})
	if !afterC.Cached || afterC.Version != 2 || afterC.Facts != first.Facts {
		t.Errorf("after a write to C: cached=%v version %d, want a cache hit at version 2 with the same answers", afterC.Cached, afterC.Version)
	}
	do(t, cached, &server.Request{DB: "a", Op: "write", Update: writeR})
	if afterR := do(t, cached, &server.Request{DB: "a", Op: "poss-ans", Query: chainQuery}); afterR.Cached {
		t.Error("after a write to R: answered from the cache")
	}

	uncached := server.New(server.Config{Workers: 1, CacheSize: -1})
	if err := uncached.Open("a", path); err != nil {
		t.Fatal(err)
	}
	explainMiss(t, uncached, "a", "poss-ans")
	do(t, uncached, &server.Request{DB: "a", Op: "write", Update: writeC})
	wantReuse(t, "first miss after a write to C", explainMiss(t, uncached, "a", "poss-ans"), 1)
	do(t, uncached, &server.Request{DB: "a", Op: "write", Update: writeR})
	wantReuse(t, "first miss after a write to R", explainMiss(t, uncached, "a", "poss-ans"), 0)
	if n := uncached.Stats().PlanReused; n != 1 {
		t.Errorf("Stats().PlanReused = %d, want 1", n)
	}
}

func TestPlanNotSharedAcrossDatabases(t *testing.T) {
	// Reference decisions, each planned on a server that never saw the
	// other database.
	want := map[string]*server.Response{}
	for name, size := range map[string][2]int{"a": {6, 1}, "b": {1, 6}} {
		ref := server.New(server.Config{Workers: 1, CacheSize: -1})
		openChain(t, ref, name, size[0], size[1])
		want[name] = explainMiss(t, ref, name, "poss-ans")
	}
	if *want["a"].Plan.Planner == *want["b"].Plan.Planner {
		t.Fatal("both databases plan alike; the test needs different decisions")
	}

	s := server.New(server.Config{Workers: 1, CacheSize: -1})
	openChain(t, s, "a", 6, 1)
	openChain(t, s, "b", 1, 6)
	// Both databases sit at version 1: only the database tells the two
	// decisions apart.
	for i, name := range []string{"a", "b", "b", "a"} {
		resp := explainMiss(t, s, name, "poss-ans")
		if *resp.Plan.Planner != *want[name].Plan.Planner {
			t.Errorf("request %d on %s: planner record %+v, want %+v", i, name, *resp.Plan.Planner, *want[name].Plan.Planner)
		}
		if resp.Facts != want[name].Facts {
			t.Errorf("request %d on %s: answers\n%s\nwant\n%s", i, name, resp.Facts, want[name].Facts)
		}
	}
}

// oracleAnswers prints the possible and certain answers of query text q
// over the database text db, by evaluating q in every world.
func oracleAnswers(t *testing.T, db, q string) (poss, cert string) {
	t.Helper()
	src, err := parse.ParseSource(strings.NewReader(db))
	if err != nil {
		t.Fatal(err)
	}
	qsrc, err := parse.ParseSource(strings.NewReader(q))
	if err != nil {
		t.Fatal(err)
	}
	var union, inter *rel.Instance
	for _, world := range src.WSD.Expand(0) {
		ans, err := qsrc.Query.Eval(world)
		if err != nil {
			t.Fatal(err)
		}
		if union == nil {
			union, inter = ans.Clone(), ans.Clone()
			continue
		}
		for i, r := range ans.Relations() {
			union.Relations()[i].UnionWith(r)
			keep := rel.NewRelation(r.Name, r.Arity)
			for _, tup := range inter.Relations()[i].Tuples() {
				if r.Contains(tup) {
					keep.Insert(tup)
				}
			}
			*inter.Relations()[i] = *keep
		}
	}
	text := func(inst *rel.Instance) string {
		var b strings.Builder
		if err := parse.PrintInstance(&b, inst); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	return text(union), text(inter)
}

// TestPlanReuseRaceWithWrites runs concurrent misses of one prepared
// query while a writer toggles a fact the answer depends on, so kept
// decisions are read and replaced while versions change under them.
// Each answer must be the worlds oracle's for the version it reports.
func TestPlanReuseRaceWithWrites(t *testing.T) {
	const mark = "@update\n  insert: R(mark k)\n"
	const unmark = "@update\n  delete: R(mark k)\n"
	base := chainDB(6, 1)
	marked := base + "  component:\n    alt: R(mark k)\n"
	type answers struct{ poss, cert string }
	var states [2]answers
	states[0].poss, states[0].cert = oracleAnswers(t, base, chainQuery)
	states[1].poss, states[1].cert = oracleAnswers(t, marked, chainQuery)
	if states[0] == states[1] {
		t.Fatal("the write does not change the answers; the test would prove nothing")
	}

	s := server.New(server.Config{Workers: 2, CacheSize: -1})
	openChain(t, s, "a", 6, 1)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	report := func(format string, args ...any) {
		select {
		case errs <- fmt.Errorf(format, args...):
		default:
		}
	}
	// One writer, so version v holds the marker exactly when v is even.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 20; k++ {
			update := mark
			if k%2 == 1 {
				update = unmark
			}
			if _, err := s.Do(&server.Request{DB: "a", Op: "write", Update: update}); err != nil {
				report("writer: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 40; k++ {
				op := "poss-ans"
				if (i+k)%2 == 1 {
					op = "cert-ans"
				}
				resp, err := s.Do(&server.Request{DB: "a", Op: op, Query: chainQuery})
				if err != nil {
					report("reader %d: %v", i, err)
					return
				}
				want := states[(resp.Version+1)%2].poss
				if op == "cert-ans" {
					want = states[(resp.Version+1)%2].cert
				}
				if resp.Facts != want {
					report("reader %d: %s at version %d:\n%s\nwant\n%s", i, op, resp.Version, resp.Facts, want)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Quiesced: two misses at the final version, the second reusing.
	for k, want := range []int64{-1, 1} {
		tr := obs.NewTrace("poss-ans", "")
		resp, err := s.DoCall(&server.Request{DB: "a", Op: "poss-ans", Query: chainQuery}, server.CallOptions{Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Facts != states[(resp.Version+1)%2].poss {
			t.Errorf("quiesced read %d at version %d: wrong answers\n%s", k, resp.Version, resp.Facts)
		}
		if got := tr.Cost().Get(obs.PlanReused); want >= 0 && got != want {
			t.Errorf("quiesced read %d: plan_reused = %d, want %d", k, got, want)
		}
	}
}
