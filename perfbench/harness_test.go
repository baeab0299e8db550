package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"pw/internal/parse"
	"pw/internal/query"
	"pw/internal/rel"
	"pw/internal/wsd"
	"pw/internal/wsdalg"
)

// digest hashes a workload's databases and, separately, its request
// streams and warm-up requests with their expectations.
func digest(t *testing.T, w *workload) (dbs, reqs string) {
	t.Helper()
	hd, hr := sha256.New(), sha256.New()
	for _, db := range w.dbs {
		io.WriteString(hd, db.name+"\x00"+db.text+"\x00")
	}
	add := func(r *request) {
		b, err := json.Marshal(&r.req)
		if err != nil {
			t.Fatal(err)
		}
		hr.Write(b)
		io.WriteString(hr, r.kind+"\x00"+strings.Join(r.want, "\x01")+"\x00"+strconv.FormatBool(r.write))
	}
	for _, s := range w.streams {
		for _, r := range s {
			add(r)
		}
		io.WriteString(hr, "\x02")
	}
	for _, r := range w.warmup {
		add(r)
	}
	return fmt.Sprintf("%x", hd.Sum(nil)), fmt.Sprintf("%x", hr.Sum(nil))
}

func TestSeedDeterminesInputs(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			build := func(seed int64) *workload {
				w, err := buildWorkload(name, seed)
				if err != nil {
					t.Fatal(err)
				}
				return w
			}
			db1, req1 := digest(t, build(7))
			db2, req2 := digest(t, build(7))
			if db1 != db2 || req1 != req2 {
				t.Fatalf("seed 7 built different inputs twice: dbs %v, requests %v", db1 == db2, req1 == req2)
			}
			db3, req3 := digest(t, build(8))
			if db1 == db3 {
				t.Error("seeds 7 and 8 built identical databases")
			}
			if req1 == req3 {
				t.Error("seeds 7 and 8 built identical request streams")
			}
		})
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestMetricNames checks the metric, unit and workload names and that
// BENCHMARK.json lists exactly what the program prints.
func TestMetricNames(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q does not match %s", name, nameRE)
		}
		if !unitRE.MatchString(unit) {
			t.Errorf("unit %q of %s does not match %s", unit, name, unitRE)
		}
		if seen[name] {
			t.Errorf("metric %s listed twice", name)
		}
		seen[name] = true
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		check(m.Name, m.Unit)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, program prints %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower") {
			t.Errorf("setup_s must be in s, lower is better")
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		check(m.Name, m.Unit)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, program prints %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] || !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why %d chars)", i, w.Name, len(w.Why))
		}
	}
}

// answersOf evaluates an answer request on w through the library and
// renders the answer the way the server does.
func answersOf(w *wsd.WSD, r *request) (string, error) {
	q, err := parse.ParseQuery(strings.NewReader(r.req.Query))
	if err != nil {
		return "", err
	}
	out, _, err := wsdalg.EvalOptimized(w, q, nil)
	if err != nil {
		return "", err
	}
	var inst *rel.Instance
	if r.req.Op == "poss-ans" {
		inst, err = wsdalg.PossibleAnswers(out, query.Identity{})
	} else {
		inst, err = wsdalg.CertainAnswers(out, query.Identity{})
	}
	if err != nil {
		return "", err
	}
	return printInstance(inst), nil
}

// TestQueryMissPoolAnswers evaluates every query of the query-miss pool
// at the benchmark's size: none may be refused, and each answer must be
// the generator's.
func TestQueryMissPoolAnswers(t *testing.T) {
	w, err := buildWorkload("query-miss", 1)
	if err != nil {
		t.Fatal(err)
	}
	src, err := parse.ParseSource(strings.NewReader(w.dbs[0].text))
	if err != nil {
		t.Fatal(err)
	}
	if n := src.WSD.Components(); n < missComps {
		t.Fatalf("query-miss db has %d components, want at least %d", n, missComps)
	}
	pool := map[string]*request{}
	for _, r := range w.streams[0] {
		pool[r.req.Query] = r
	}
	if len(pool) <= 256 || len(pool) >= 512 {
		t.Fatalf("pool has %d distinct queries, want between the answer cache (256) and the prepared cache (512)", len(pool))
	}
	for _, r := range pool {
		got, err := answersOf(src.WSD, r)
		if err != nil {
			t.Fatalf("%s refused: %v", r.req.Query, err)
		}
		if got != r.want[0] {
			t.Fatalf("%s %s: library answers\n%s\ngenerator expects\n%s", r.req.Op, r.req.Query, got, r.want[0])
		}
	}
}

// TestWriteMixCycle applies the write cycle through the library and
// checks every read kind's expectation at every state, and that four
// writes restore the initial decomposition.
func TestWriteMixCycle(t *testing.T) {
	w, err := buildWorkload("write-mix", 3)
	if err != nil {
		t.Fatal(err)
	}
	src, err := parse.ParseSource(strings.NewReader(w.dbs[0].text))
	if err != nil {
		t.Fatal(err)
	}
	cur := src.WSD
	initial := cur.String()
	writes := w.streams[0][:writeCycle*4]
	state := 0
	for _, wr := range writes {
		if !wr.write {
			continue
		}
		for _, r := range w.warmup {
			var got string
			switch r.req.Op {
			case "poss-ans", "cert-ans":
				if got, err = answersOf(cur, r); err != nil {
					t.Fatal(err)
				}
			case "poss", "cert":
				inst, err := parse.ParseInstance(strings.NewReader(r.req.Facts))
				if err != nil {
					t.Fatal(err)
				}
				if r.req.Op == "poss" {
					got = strconv.FormatBool(cur.Possible(inst))
				} else {
					got = strconv.FormatBool(cur.Certain(inst))
				}
			case "count":
				got = cur.Count().String()
			}
			want := r.want[0]
			if len(r.want) > 1 {
				want = r.want[state]
			}
			if got != want {
				t.Fatalf("state %d: %s %s: library %q, expected %q", state, r.kind, r.req.Op, truncate(got), truncate(want))
			}
		}
		u, err := parse.ParseUpdate(strings.NewReader(wr.req.Update))
		if err != nil {
			t.Fatal(err)
		}
		if cur, err = cur.ApplyUpdate(u); err != nil {
			t.Fatal(err)
		}
		if got := cur.Count().String(); got != wr.want[0] {
			t.Fatalf("write %d changed the world count to %s", state, got)
		}
		state = (state + 1) % writeCycle
	}
	if cur.String() != initial {
		t.Fatal("the write cycle does not restore the initial decomposition")
	}
}

// TestCorruptedExpectationIsCaught is the harness self-test: one wrong
// expectation must surface as a failed, incorrect run.
func TestCorruptedExpectationIsCaught(t *testing.T) {
	w, err := buildWorkload("write-mix", 1)
	if err != nil {
		t.Fatal(err)
	}
	reader := w.streams[1]
	for i := range reader[:64] {
		if reader[i].kind == "cert" {
			reader[i].want = append([]string(nil), reader[i].want...)
			for st := range reader[i].want {
				reader[i].want[st] = strconv.FormatBool(reader[i].want[st] != "true")
			}
		}
	}
	res, err := measure(w, 1, 300*time.Millisecond, false, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || res.Metrics["ok_frac"].Value >= 1 {
		t.Fatalf("corrupted expectations went unnoticed: correct=%v failed=%d ok_frac=%v", res.Correct, res.Failed, res.Metrics["ok_frac"].Value)
	}
}

// TestWorkloadsRunCorrectly runs every workload briefly in both modes:
// every answer right, every listed metric printed.
func TestWorkloadsRunCorrectly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, traced), func(t *testing.T) {
				w, err := buildWorkload(name, 5)
				if err != nil {
					t.Fatal(err)
				}
				res, err := measure(w, 5, 600*time.Millisecond, traced, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Fatalf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("metric %s: %+v", m.name, got)
					}
					if !traced && got.Value <= 0 {
						t.Errorf("end-to-end metric %s reads %v", m.name, got.Value)
					}
				}
			})
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for these inputs.
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{1, 5}, [3]float64{0, 3, 6}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope", "-seconds", "1"},
		{"-seconds", "1"},
		{"-workload", "probe-mix", "-trace", "2"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}
