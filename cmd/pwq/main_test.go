package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"pw/internal/server"
	"pw/internal/wsdalg"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGolden pins pwq's CLI output shape on the examples/data inputs:
// every decision answer, the kind report, and the world listing. The
// engine may reorganize internally (worker counts, search order), but
// what the CLI prints must not drift unnoticed.
func TestGolden(t *testing.T) {
	data := func(name string) string { return filepath.Join("..", "..", "examples", "data", name) }
	cases := []struct {
		name string
		args []string
	}{
		{"kind", []string{"kind", "-db", data("personnel.pw")}},
		{"memb_yes", []string{"memb", "-db", data("personnel.pw"), "-inst", data("personnel_world.pw")}},
		{"uniq_no", []string{"uniq", "-db", data("personnel.pw"), "-inst", data("personnel_world.pw")}},
		{"cont_yes", []string{"cont", "-db", data("personnel.pw"), "-db2", data("personnel_loose.pw")}},
		{"cont_no", []string{"cont", "-db", data("personnel_loose.pw"), "-db2", data("personnel.pw")}},
		{"poss_yes", []string{"poss", "-db", data("personnel.pw"), "-facts", data("personnel_maybe.pw")}},
		{"cert_no", []string{"cert", "-db", data("personnel.pw"), "-facts", data("personnel_maybe.pw")}},
		{"cert_yes", []string{"cert", "-db", data("personnel.pw"), "-facts", data("personnel_certain.pw")}},
		{"worlds", []string{"worlds", "-db", data("personnel.pw"), "-limit", "3"}},
		{"count_tables", []string{"count", "-db", data("personnel.pw")}},
		// The decomposition backend: 2^20 worlds answered without
		// enumeration.
		{"kind_wsd", []string{"kind", "-db", data("sensors.pw")}},
		{"count_wsd", []string{"count", "-db", data("sensors.pw")}},
		{"memb_wsd_yes", []string{"memb", "-db", data("sensors.pw"), "-inst", data("sensors_world.pw")}},
		{"uniq_wsd_no", []string{"uniq", "-db", data("sensors.pw"), "-inst", data("sensors_world.pw")}},
		{"poss_wsd_yes", []string{"poss", "-db", data("sensors.pw"), "-facts", data("sensors_world.pw")}},
		{"cert_wsd_yes", []string{"cert", "-db", data("sensors.pw"), "-facts", data("sensors_certain.pw")}},
		{"cert_wsd_no", []string{"cert", "-db", data("sensors.pw"), "-facts", data("sensors_world.pw")}},
		{"worlds_wsd", []string{"worlds", "-db", data("sensors.pw"), "-limit", "2"}},
		{"sample_wsd", []string{"sample", "-db", data("sensors.pw"), "-seed", "7", "-n", "2"}},
		{"sample_tables", []string{"sample", "-db", data("personnel.pw"), "-seed", "3"}},
		// Query answers: the decomposition backend runs the lifted
		// evaluator over 2^20 worlds without enumerating any of them.
		{"cert_ans_wsd", []string{"cert-ans", "-db", data("sensors.pw"), "-query", data("sensors_sensors.pw")}},
		{"poss_ans_wsd", []string{"poss-ans", "-db", data("sensors.pw"), "-query", data("sensors_hi.pw")}},
		{"cert_ans_wsd_empty", []string{"cert-ans", "-db", data("sensors.pw"), "-query", data("sensors_hi.pw")}},
		// The world-set algebra: what-if analysis over the 2^20 worlds —
		// certain(possible(σ)) — and a native ≠ selection, both answered
		// on the factored form.
		{"cert_ans_wsd_whatif", []string{"cert-ans", "-db", data("sensors.pw"), "-query", data("sensors_whatif.pw")}},
		{"poss_ans_wsd_notlo", []string{"poss-ans", "-db", data("sensors.pw"), "-query", data("sensors_not_lo.pw")}},
		{"cert_ans_tables", []string{"cert-ans", "-db", data("personnel.pw"), "-query", data("personnel_names.pw")}},
		{"poss_ans_tables", []string{"poss-ans", "-db", data("personnel.pw"), "-query", data("personnel_names.pw")}},
		// The attribute-level backend: 2^100 worlds in ~100 template
		// lines, every answer from the factored form.
		{"kind_grid", []string{"kind", "-db", data("grid.pw")}},
		{"count_grid", []string{"count", "-db", data("grid.pw")}},
		{"poss_grid_yes", []string{"poss", "-db", data("grid.pw"), "-facts", data("grid_maybe.pw")}},
		{"cert_grid_no", []string{"cert", "-db", data("grid.pw"), "-facts", data("grid_maybe.pw")}},
		{"sample_grid", []string{"sample", "-db", data("grid.pw"), "-seed", "9"}},
		{"poss_ans_grid", []string{"poss-ans", "-db", data("grid.pw"), "-query", data("grid_hi.pw")}},
		{"cert_ans_grid", []string{"cert-ans", "-db", data("grid.pw"), "-query", data("grid_hi.pw")}},
		// The write path: an @update program applied to a 2^20-world
		// decomposition, printed back as a parsable canonical @wsd block.
		// The -trace variant runs the write with a live cost sink and must
		// print byte-identical output: observing a write does not change
		// it. That the from-scratch route prints the same is
		// TestIncrementalMatchesFullRenormalization's (internal/wsd).
		{"update_wsd", []string{"update", "-db", data("sensors.pw"), "-update", data("sensors_patch.pw")}},
		{"update_wsd", []string{"update", "-db", data("sensors.pw"), "-update", data("sensors_patch.pw"), "-trace"}},
		// Containment on decompositions (and mixed backends): the former
		// "tables only" exit-2 carve-out is gone.
		{"cont_wsd_yes", []string{"cont", "-db", data("sensors_pinned.pw"), "-db2", data("sensors.pw")}},
		{"cont_wsd_no", []string{"cont", "-db", data("sensors.pw"), "-db2", data("sensors_pinned.pw")}},
		{"cont_wsd_views_yes", []string{"cont", "-db", data("sensors_pinned.pw"), "-db2", data("sensors.pw"),
			"-query", data("sensors_hi.pw"), "-query2", data("sensors_hi.pw")}},
		{"cont_mixed_yes", []string{"cont", "-db", data("sensors_frozen.pw"), "-db2", data("sensors.pw")}},
		{"cont_mixed_infinite_no", []string{"cont", "-db", data("personnel.pw"), "-db2", data("sensors.pw")}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, stderr.String())
			}
			golden := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("output drifted from %s:\n--- got ---\n%s--- want ---\n%s",
					golden, stdout.String(), want)
			}
		})
	}
}

// TestAnswersStableAcrossWorkers reruns every decision case at several
// worker counts: the CLI answer must be identical — the user-facing half
// of the determinism contract.
func TestAnswersStableAcrossWorkers(t *testing.T) {
	data := func(name string) string { return filepath.Join("..", "..", "examples", "data", name) }
	cases := [][]string{
		{"memb", "-db", data("personnel.pw"), "-inst", data("personnel_world.pw")},
		{"cont", "-db", data("personnel_loose.pw"), "-db2", data("personnel.pw")},
		{"cert", "-db", data("personnel.pw"), "-facts", data("personnel_certain.pw")},
		{"cert-ans", "-db", data("personnel.pw"), "-query", data("personnel_names.pw")},
		{"poss-ans", "-db", data("personnel.pw"), "-query", data("personnel_names.pw")},
	}
	for _, base := range cases {
		var want string
		for _, w := range []string{"1", "2", "8"} {
			var stdout, stderr bytes.Buffer
			args := append([]string{base[0], "-workers", w}, base[1:]...)
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%v: exit %d, stderr: %s", args, code, stderr.String())
			}
			if want == "" {
				want = stdout.String()
			} else if stdout.String() != want {
				t.Errorf("%v: answer %q differs from workers=1 answer %q", args, stdout.String(), want)
			}
		}
	}
}

func TestBadUsageExits2(t *testing.T) {
	data := func(name string) string { return filepath.Join("..", "..", "examples", "data", name) }
	var stdout, stderr bytes.Buffer
	if code := run([]string{"nope"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown command: exit %d, want 2", code)
	}
	if code := run([]string{"memb"}, &stdout, &stderr); code != 2 {
		t.Errorf("missing -db: exit %d, want 2", code)
	}
	if code := run([]string{"poss-ans", "-db", data("sensors.pw")}, &stdout, &stderr); code != 2 {
		t.Errorf("poss-ans without -query: exit %d, want 2", code)
	}
	// A @query file in a database position is a clean structural error,
	// not a crash.
	if code := run([]string{"kind", "-db", data("sensors_hi.pw")}, &stdout, &stderr); code != 2 {
		t.Errorf("@query file as -db: exit %d, want 2", code)
	}
	if code := run([]string{"cont", "-db", data("sensors.pw"), "-db2", data("sensors_hi.pw")}, &stdout, &stderr); code != 2 {
		t.Errorf("@query file as -db2: exit %d, want 2", code)
	}
	// ≠ selections now evaluate natively on the decomposition backend;
	// the exit-2 refusals left are entanglement (a query whose answer
	// decomposition cannot be built within MaxMergeAlts) and world-set
	// operators on the per-world table engine.
	stderr.Reset()
	if code := run([]string{"cert-ans", "-db", data("sensors.pw"), "-query", data("sensors_not_lo.pw")},
		&stdout, &stderr); code != 0 {
		t.Errorf("≠ query on @wsd: exit %d, want 0 (native eval): %s", code, stderr.String())
	}
	stderr.Reset()
	if code := run([]string{"cert-ans", "-db", data("sensors.pw"), "-query", data("sensors_pick.pw")},
		&stdout, &stderr); code != 2 {
		t.Errorf("entangled choiceof on @wsd: exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "entangled") {
		t.Errorf("entangled rejection should name the cause, got: %s", stderr.String())
	}
	stderr.Reset()
	if code := run([]string{"poss-ans", "-db", data("personnel.pw"), "-query", data("personnel_possible.pw")},
		&stdout, &stderr); code != 2 {
		t.Errorf("world-set operator on tables: exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "world-set") {
		t.Errorf("world-set rejection should name the fragment, got: %s", stderr.String())
	}
	// A mixed cont whose @table superset has infinite rep cannot be
	// compiled and is a structural error.
	stderr.Reset()
	if code := run([]string{"cont", "-db", data("sensors.pw"), "-db2", data("personnel.pw")},
		&stdout, &stderr); code != 2 {
		t.Errorf("cont with infinite-rep superset: exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "rep is infinite") {
		t.Errorf("infinite-rep superset rejection should name the cause, got: %s", stderr.String())
	}
	// The identity carve-out (infinite subset ⊆ finite superset is
	// plainly "no", exit 0) does not extend to views: under a query the
	// subset side must compile, so ErrInfiniteRep is a structural error.
	stderr.Reset()
	if code := run([]string{"cont", "-db", data("personnel.pw"), "-db2", data("sensors.pw"),
		"-query", data("personnel_names.pw"), "-query2", data("personnel_names.pw")},
		&stdout, &stderr); code != 2 {
		t.Errorf("cont view with infinite-rep subset: exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "rep is infinite") {
		t.Errorf("infinite-rep subset rejection should name the cause, got: %s", stderr.String())
	}
	// The update command: table-backed databases, missing programs, and
	// misrouted @update files are structural errors with clear messages.
	stderr.Reset()
	if code := run([]string{"update", "-db", data("personnel.pw"), "-update", data("sensors_patch.pw")},
		&stdout, &stderr); code != 2 {
		t.Errorf("update on table-backed db: exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "table-backed") {
		t.Errorf("table-backed update rejection should name the cause, got: %s", stderr.String())
	}
	if code := run([]string{"update", "-db", data("sensors.pw")}, &stdout, &stderr); code != 2 {
		t.Errorf("update without -update: exit %d, want 2", code)
	}
	if code := run([]string{"update", "-db", data("sensors.pw"), "-update", data("sensors.pw")},
		&stdout, &stderr); code != 2 {
		t.Errorf("@wsd file as -update: exit %d, want 2", code)
	}
	stderr.Reset()
	if code := run([]string{"update", "-db", data("sensors.pw"), "-update", data("sensors_patch.pw"), "-full"},
		&stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), "flag provided but not defined: -full") {
		t.Errorf("update -full: exit %d, want 2 naming the unknown flag; stderr: %s", code, stderr.String())
	}
	if code := run([]string{"kind", "-db", data("sensors_patch.pw")}, &stdout, &stderr); code != 2 {
		t.Errorf("@update file as -db: exit %d, want 2", code)
	}
	// An @update file as -db2 is refused before it reaches containment,
	// whichever backend the -db side has.
	for _, db := range []string{"personnel.pw", "sensors.pw"} {
		stderr.Reset()
		if code := run([]string{"cont", "-db", data(db), "-db2", data("sensors_patch.pw")},
			&stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), "is an @update file") {
			t.Errorf("@update file as -db2 against %s: exit %d, want 2 naming the file; stderr: %s", db, code, stderr.String())
		}
	}
	// Malformed tmpl slot syntax is a parse error, not a crash.
	stderr.Reset()
	tmp := filepath.Join(t.TempDir(), "bad.pw")
	if err := os.WriteFile(tmp, []byte("@wsd\n  relation: R(1)\n  component:\n    tmpl: R({a|{b}})\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"count", "-db", tmp}, &stdout, &stderr); code != 2 {
		t.Errorf("nested-brace tmpl: exit %d, want 2", code)
	}
}

// -trace prints an indented span tree and the engine's nonzero cost
// counters to stderr without disturbing the stdout answer.
func TestTraceFlag(t *testing.T) {
	data := func(name string) string { return filepath.Join("..", "..", "examples", "data", name) }
	var stdout, stderr bytes.Buffer
	code := run([]string{"cert-ans", "-trace",
		"-db", data("sensors.pw"), "-query", data("sensors_hi.pw")}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "@relation Hi(2)") {
		t.Fatalf("stdout missing the answer:\n%s", stdout.String())
	}
	trace := stderr.String()
	for _, want := range []string{"cert-ans ", "  parse ", "  eval ", "cost: ", "parse_bytes=", "eval_components="} {
		if !strings.Contains(trace, want) {
			t.Errorf("trace output missing %q:\n%s", want, trace)
		}
	}

	// Untraced runs keep stderr silent.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"cert-ans", "-db", data("sensors.pw"), "-query", data("sensors_hi.pw")},
		&stdout, &stderr); code != 0 || stderr.Len() != 0 {
		t.Fatalf("untraced run: exit %d, stderr %q", code, stderr.String())
	}
}

// normalizeDurations rewrites every wall-clock figure in a rendered
// plan to a fixed token, so goldens pin the plan's structure (operator
// tree, estimates, actuals, counters) without pinning machine speed.
func normalizeDurations(b []byte) []byte {
	b = regexp.MustCompile(`\bus=\d+`).ReplaceAll(b, []byte("us=X"))
	return regexp.MustCompile(`\b\d+us\b`).ReplaceAll(b, []byte("Xus"))
}

// TestExplainGolden pins the rendered EXPLAIN/ANALYZE plan for the two
// decomposition examples (the 2^20-world sensors db and the 2^100-world
// attribute-template grid), durations normalized; and checks that the
// -json form decodes back into the same Plan shape.
func TestExplainGolden(t *testing.T) {
	data := func(name string) string { return filepath.Join("..", "..", "examples", "data", name) }
	cases := []struct {
		name string
		args []string
	}{
		{"explain_sensors", []string{"explain", "-db", data("sensors.pw"), "-query", data("sensors_hi.pw")}},
		{"explain_grid", []string{"explain", "-db", data("grid.pw"), "-query", data("grid_hi.pw")}},
		{"explain_whatif", []string{"explain", "-db", data("sensors.pw"), "-query", data("sensors_whatif.pw")}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, stderr.String())
			}
			got := normalizeDurations(stdout.Bytes())
			golden := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("output drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}

			// The -json form is one decodable Plan carrying the same tree.
			stdout.Reset()
			stderr.Reset()
			if code := run(append(tc.args, "-json"), &stdout, &stderr); code != 0 {
				t.Fatalf("-json: exit %d, stderr: %s", code, stderr.String())
			}
			var plan wsdalg.Plan
			if err := json.Unmarshal(stdout.Bytes(), &plan); err != nil {
				t.Fatalf("-json output does not decode: %v\n%s", err, stdout.String())
			}
			if plan.Components <= 0 || len(plan.Outs) == 0 || plan.WorldCount == "" {
				t.Errorf("-json plan incomplete: %+v", plan)
			}
			round, err := json.Marshal(&plan)
			if err != nil {
				t.Fatal(err)
			}
			var back wsdalg.Plan
			if err := json.Unmarshal(round, &back); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(&plan, &back) {
				t.Error("-json plan does not round-trip")
			}
		})
	}

	// A refused query still prints its error-annotated partial plan:
	// the entangled choiceof stops at the blow-up with a !entangled node.
	var stdout, stderr bytes.Buffer
	if code := run([]string{"explain", "-db", data("sensors.pw"), "-query", data("sensors_pick.pw")},
		&stdout, &stderr); code != 2 {
		t.Fatalf("entangled explain: exit %d, want 2", code)
	}
	if !strings.Contains(stdout.String(), "!entangled") {
		t.Errorf("refused explain missing !entangled marker:\n%s", stdout.String())
	}
	// Table-backed databases are a structural error.
	if code := run([]string{"explain", "-db", data("personnel.pw"), "-query", data("personnel_names.pw")},
		&stdout, &stderr); code != 2 {
		t.Errorf("table-backed explain: exit %d, want 2", code)
	}
}

// TestSharesServerRecord: pwq answers through the server's request
// path, so -trace prints the server's spans and cache counters, and
// explain -json prints the plan DoCall attaches to the same request.
func TestSharesServerRecord(t *testing.T) {
	data := func(name string) string { return filepath.Join("..", "..", "examples", "data", name) }
	var stdout, stderr bytes.Buffer
	if code := run([]string{"cert-ans", "-trace", "-db", data("sensors.pw"), "-query", data("sensors_hi.pw")},
		&stdout, &stderr); code != 0 {
		t.Fatalf("cert-ans -trace: exit %d, stderr: %s", code, stderr.String())
	}
	for _, want := range []string{"  prepare ", "  eval ", "  answers ", "cache_misses=1"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("trace output missing %q:\n%s", want, stderr.String())
		}
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"explain", "-json", "-db", data("sensors.pw"), "-query", data("sensors_hi.pw")},
		&stdout, &stderr); code != 0 {
		t.Fatalf("explain -json: exit %d, stderr: %s", code, stderr.String())
	}
	s := server.New(server.Config{})
	if err := s.Open("sensors", data("sensors.pw")); err != nil {
		t.Fatal(err)
	}
	q, err := os.ReadFile(data("sensors_hi.pw"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.DoCall(&server.Request{DB: "sensors", Op: "cert-ans", Query: string(q)},
		server.CallOptions{Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(resp.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := withoutDurations(t, stdout.Bytes()), withoutDurations(t, want); !reflect.DeepEqual(got, want) {
		t.Errorf("explain -json differs from the server's plan:\n--- pwq ---\n%v\n--- server ---\n%v", got, want)
	}
}

// withoutDurations decodes a JSON plan and drops every wall-clock
// ("us") field, which omitempty also drops when it reads zero.
func withoutDurations(t *testing.T, b []byte) any {
	t.Helper()
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatalf("plan does not decode: %v\n%s", err, b)
	}
	var strip func(any)
	strip = func(v any) {
		switch n := v.(type) {
		case map[string]any:
			delete(n, "us")
			for _, c := range n {
				strip(c)
			}
		case []any:
			for _, c := range n {
				strip(c)
			}
		}
	}
	strip(v)
	return v
}
