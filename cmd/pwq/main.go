// Command pwq decides the paper's five problems on .pw files.
//
// Usage:
//
//	pwq memb     -db tables.pw -inst instance.pw
//	pwq uniq     -db tables.pw -inst instance.pw
//	pwq cont     -db subset.pw -db2 superset.pw [-query q0.pw] [-query2 q.pw]
//	pwq poss     -db tables.pw -facts p.pw
//	pwq cert     -db tables.pw -facts p.pw
//	pwq poss-ans -db tables.pw -query q.pw
//	pwq cert-ans -db tables.pw -query q.pw
//	pwq explain  -db wsd.pw -query q.pw [-json]
//	pwq count    -db tables.pw
//	pwq sample   -db tables.pw [-seed 1] [-n 3]
//	pwq worlds   -db tables.pw [-limit 20]
//	pwq kind     -db tables.pw
//	pwq update   -db wsd.pw -update prog.pw [-out result.pw]
//
// Files use the .pw format of internal/parse; -db accepts either
// representation backend — a conditioned-table database (@table blocks)
// or a world-set decomposition (@wsd block) — and -query/-query2 take
// @query blocks: the extended relational algebra, including ≠
// selections, diff and the world-set operators possible/certain/
// choiceof. On a decomposition the decision commands run the native
// polynomial procedures and the query commands run the lifted evaluator
// of internal/wsdalg — no world enumeration anywhere, so cert-ans/
// poss-ans/cont answer on 10^6-world decompositions directly on the
// factored form, world-set operators included. On tables they run the
// decision engine, and count/worlds enumerate the canonical domain;
// the world-set operators are not per-world maps, so on the table
// backend they exit 2 with a clear message (compile to @wsd first).
//
// cont accepts any backend combination: the table side of a mixed pair
// is compiled to a decomposition first (an infinite-rep subset side is
// simply "no" against a finite superset). A query whose answer
// decomposition would blow past the entanglement guard exits 2 naming
// the cause.
//
// update applies an @update program (-update, see internal/parse) to a
// decomposition with the incremental renormalization engine and prints
// the resulting @wsd block — parsable, Normalize-canonical — to stdout
// or -out. Update programs apply to decompositions only; a table-backed
// -db exits 2.
//
// All commands exit 0 with "yes"/"no" (or the requested output) on
// stdout; structural problems exit 2. -workers bounds the engine's
// goroutine budget (0 = GOMAXPROCS); answers are identical at every
// worker count.
//
// -trace prints an indented span tree and the engine's nonzero cost
// counters (parse bytes, components visited, alternatives tabulated,
// valuations enumerated, …) to stderr after the answer — the offline
// twin of the server's ?trace=1.
//
// explain runs a query on a decomposition through the planned evaluator
// and prints the EXPLAIN/ANALYZE record: the operator tree with
// per-node estimates (computed before each operator runs) and actuals
// (measured while it runs), assembly and normalization phases, the
// world count of the answer and the run's cost counters. -json emits
// the same record as one JSON object — the offline twin of the server's
// ?explain=1. A refused query (entanglement, a non-algebra fragment)
// prints its partial, error-annotated plan and exits 2.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"pw/internal/decide"
	"pw/internal/obs"
	"pw/internal/parse"
	"pw/internal/query"
	"pw/internal/rel"
	"pw/internal/rep"
	"pw/internal/worlds"
	"pw/internal/wsd"
	"pw/internal/wsdalg"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		return usage(stderr)
	}
	cmd := args[0]
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	dbPath := fs.String("db", "", "database (.pw, @table or @wsd form)")
	db2Path := fs.String("db2", "", "second database for cont (.pw)")
	instPath := fs.String("inst", "", "complete instance (.pw)")
	factsPath := fs.String("facts", "", "fact set for poss/cert (.pw)")
	queryPath := fs.String("query", "", "query (.pw, @query block) for poss-ans/cert-ans, or the -db view for cont")
	query2Path := fs.String("query2", "", "the -db2 view for cont (.pw, @query block)")
	limit := fs.Int("limit", 20, "world limit for the worlds command")
	workersN := fs.Int("workers", 0, "engine worker count (0 = GOMAXPROCS, 1 = sequential)")
	seed := fs.Int64("seed", 1, "random seed for the sample command")
	samples := fs.Int("n", 1, "number of worlds for the sample command")
	updatePath := fs.String("update", "", "update program (.pw, @update block) for the update command")
	outPath := fs.String("out", "", "output file for the update command (default stdout)")
	traced := fs.Bool("trace", false, "print a span tree and engine cost counters to stderr")
	jsonOut := fs.Bool("json", false, "explain: emit the plan as JSON instead of text")
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	var tr *obs.Trace
	if *traced {
		tr = obs.NewTrace(cmd, "pwq")
		defer func() {
			tr.Finish()
			tr.WriteText(stderr)
		}()
	}
	cost := tr.Cost() // nil when untraced; every sink is nil-safe
	o := decide.Options{Workers: *workersN, Cost: cost}

	sp := tr.Root().StartChild("parse")
	src, err := loadSource(*dbPath, cost)
	sp.End()
	if err != nil {
		return fatal(stderr, err)
	}
	if src.Query != nil {
		return fatal(stderr, fmt.Errorf("%s is a @query file; databases go to -db, queries to -query", *dbPath))
	}
	if src.Update != nil {
		return fatal(stderr, fmt.Errorf("%s is an @update file; databases go to -db, update programs to -update", *dbPath))
	}
	d, w := src.DB, src.WSD
	db := rep.DB{WSD: w, Tab: d}
	switch cmd {
	case "kind":
		if w != nil {
			fmt.Fprintln(stdout, "wsd")
		} else {
			fmt.Fprintln(stdout, d.Kind())
		}
	case "count":
		// A decomposition's exact count; on tables |rep(d)| over the
		// canonical domain, sharded across -workers (worker-independent).
		fmt.Fprintln(stdout, db.Count(o))
	case "worlds":
		// World listing streams in canonical enumeration order, so it
		// stays on the sequential enumerator regardless of -workers.
		n := 0
		each := func(i *rel.Instance) bool {
			fmt.Fprintf(stdout, "-- world %d --\n%s\n", n+1, i)
			n++
			return n >= *limit
		}
		if w != nil {
			// A decomposition's enumeration is the exact world set, not a
			// canonical-domain proxy.
			w.Each(each)
			fmt.Fprintf(stdout, "(%d worlds shown)\n", n)
		} else {
			worlds.Each(d, nil, each)
			fmt.Fprintf(stdout, "(%d worlds shown; canonical domain)\n", n)
		}
	case "sample":
		if *samples < 1 {
			return fatal(stderr, fmt.Errorf("-n must be positive"))
		}
		// Collect every sample before printing, so a failure cannot abort
		// the stream after partial output.
		rng := rand.New(rand.NewSource(*seed))
		insts := make([]*rel.Instance, 0, *samples)
		for k := 0; k < *samples; k++ {
			inst, err := db.Sample(rng, *seed, k)
			if err != nil {
				return fatal(stderr, err)
			}
			insts = append(insts, inst)
		}
		for k, inst := range insts {
			fmt.Fprintf(stdout, "-- sample %d --\n%s\n", k+1, inst)
		}
	case "memb", "uniq", "poss", "cert":
		path := *instPath
		if cmd == "poss" || cmd == "cert" {
			path = *factsPath
		}
		i, err := loadInstance(path, cost)
		if err != nil {
			return fatal(stderr, err)
		}
		var yes bool
		switch cmd {
		case "memb":
			yes, err = db.Member(o, i)
		case "uniq":
			yes, err = db.Unique(o, i)
		case "poss":
			yes, err = db.Possible(o, i)
		default:
			yes, err = db.Certain(o, i)
		}
		return answer(stdout, stderr, yes, err)
	case "cont":
		q0, err := loadQuery(*queryPath, false, cost)
		if err != nil {
			return fatal(stderr, err)
		}
		q1, err := loadQuery(*query2Path, false, cost)
		if err != nil {
			return fatal(stderr, err)
		}
		src2, err := loadSource(*db2Path, cost)
		if err != nil {
			return fatal(stderr, err)
		}
		if src2.Query != nil {
			return fatal(stderr, fmt.Errorf("%s is a @query file; databases go to -db2, queries to -query2", *db2Path))
		}
		yes, err := rep.Contains(o, q0, db, q1, rep.DB{WSD: src2.WSD, Tab: src2.DB})
		return answer(stdout, stderr, yes, err)
	case "poss-ans", "cert-ans":
		q, err := loadQuery(*queryPath, true, cost)
		if err != nil {
			return fatal(stderr, err)
		}
		var text strings.Builder
		if w != nil {
			// Decomposition backend, the server's evaluation path: the
			// planned evaluator runs once and the possible or certain
			// answer facts are read straight off its parts.
			sp := tr.Root().StartChild("eval")
			var ans *wsdalg.Answers
			if ans, _, _, err = wsdalg.Eval(w, q, wsdalg.Options{Cost: cost}); err == nil {
				err = parse.PrintAnswers(&text, ans, cmd == "poss-ans")
			}
			sp.End()
		} else {
			var ans *rel.Instance
			if ans, err = db.Answers(o, q, cmd == "poss-ans"); err == nil {
				err = parse.PrintInstance(&text, ans)
			}
		}
		if err != nil {
			return fatal(stderr, err)
		}
		io.WriteString(stdout, text.String())
	case "explain":
		if w == nil {
			return fatal(stderr, fmt.Errorf("explain applies to decompositions; %s is table-backed (compile with wsd first)", *dbPath))
		}
		q, err := loadQuery(*queryPath, true, cost)
		if err != nil {
			return fatal(stderr, err)
		}
		// An observed run returns the plan; untraced, a private sink
		// observes it.
		c := cost
		if c == nil {
			c = obs.NewCost()
		}
		_, plan, _, evalErr := wsdalg.Eval(w, q, wsdalg.Options{Cost: c})
		if *jsonOut {
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(plan); err != nil {
				return fatal(stderr, err)
			}
		} else {
			plan.WriteText(stdout)
		}
		if evalErr != nil {
			// The partial plan above shows where it stopped; the exit code
			// and message match what cert-ans would have reported.
			return fatal(stderr, evalErr)
		}
	case "update":
		if w == nil {
			return fatal(stderr, fmt.Errorf("update applies to decompositions; %s is table-backed (compile with wsd first)", *dbPath))
		}
		u, err := loadUpdate(*updatePath, cost)
		if err != nil {
			return fatal(stderr, err)
		}
		sp := tr.Root().StartChild("apply-update")
		out, err := w.ApplyUpdateObserved(u, cost)
		sp.End()
		if err != nil {
			return fatal(stderr, err)
		}
		dst := stdout
		if *outPath != "" {
			f, err := os.Create(*outPath)
			if err != nil {
				return fatal(stderr, err)
			}
			defer f.Close()
			dst = f
		}
		if err := parse.PrintWSD(dst, out); err != nil {
			return fatal(stderr, err)
		}
	default:
		return usage(stderr)
	}
	return 0
}

func loadSource(path string, c *obs.Cost) (*parse.Source, error) {
	if path == "" {
		return nil, fmt.Errorf("missing -db")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parse.ParseSource(c.ParseReader(f))
}

// loadQuery reads a @query file; with required=false an empty path
// means the identity query (cont's view-free form).
func loadQuery(path string, required bool, c *obs.Cost) (query.Query, error) {
	if path == "" {
		if required {
			return nil, fmt.Errorf("missing -query")
		}
		return query.Identity{}, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	src, err := parse.ParseSource(c.ParseReader(f))
	if err != nil {
		return nil, err
	}
	if src.Query == nil {
		return nil, fmt.Errorf("%s does not contain a @query block", path)
	}
	return *src.Query, nil
}

// loadUpdate reads an @update file, rejecting misrouted sources the
// same way -db rejects @query files.
func loadUpdate(path string, c *obs.Cost) (*wsd.Update, error) {
	if path == "" {
		return nil, fmt.Errorf("missing -update")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	src, err := parse.ParseSource(c.ParseReader(f))
	if err != nil {
		return nil, err
	}
	if src.Update == nil {
		return nil, fmt.Errorf("%s does not contain an @update block", path)
	}
	return src.Update, nil
}

func loadInstance(path string, c *obs.Cost) (*rel.Instance, error) {
	if path == "" {
		return nil, fmt.Errorf("missing instance/fact file")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parse.ParseInstance(c.ParseReader(f))
}

func answer(stdout, stderr io.Writer, yes bool, err error) int {
	if err != nil {
		return fatal(stderr, err)
	}
	if yes {
		fmt.Fprintln(stdout, "yes")
	} else {
		fmt.Fprintln(stdout, "no")
	}
	return 0
}

func fatal(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "pwq:", err)
	return 2
}

func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, "usage: pwq {memb|uniq|cont|poss|cert|poss-ans|cert-ans|explain|count|sample|worlds|kind|update} -db FILE [...]")
	return 2
}
