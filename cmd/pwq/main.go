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
// memb, uniq, poss, cert, count, poss-ans, cert-ans, cont and explain
// run the server's request path in process: pwq registers -db (and
// -db2) with an internal/server Server and sends the command as one
// Request through DoCall, exactly as pwd would answer it over HTTP. The
// commands with no request form run locally: kind, worlds, sample
// (which prints the instances, not their .pw text) and update (which
// prints the successor @wsd block).
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
// valuations enumerated, …) to stderr after the answer: the request's
// own record, with the spans and counters the server's ?trace=1
// returns.
//
// explain runs a query on a decomposition as a cert-ans request with
// the EXPLAIN record attached and prints that record: the operator tree
// with per-node estimates (computed before each operator runs) and
// actuals (measured while it runs), the readout phase, the world count
// of the input and the run's cost counters. -json emits the same record
// as one JSON object, the plan of the server's ?explain=1. A refused
// query (entanglement, a non-algebra fragment) prints its partial,
// error-annotated plan and exits 2.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"pw/internal/obs"
	"pw/internal/parse"
	"pw/internal/rel"
	"pw/internal/rep"
	"pw/internal/server"
	"pw/internal/worlds"
	"pw/internal/wsd"
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

	sp := tr.Root().StartChild("parse")
	src, err := loadDB("-db", *dbPath, cost)
	var src2 *parse.Source
	if err == nil && cmd == "cont" {
		src2, err = loadDB("-db2", *db2Path, cost)
	}
	sp.End()
	if err != nil {
		return fatal(stderr, err)
	}
	d, w := src.DB, src.WSD
	switch cmd {
	case "kind":
		if w != nil {
			fmt.Fprintln(stdout, "wsd")
		} else {
			fmt.Fprintln(stdout, d.Kind())
		}
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
		db := rep.DB{WSD: w, Tab: d}
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
	case "memb", "uniq", "poss", "cert", "count", "poss-ans", "cert-ans", "cont", "explain":
		req := server.Request{DB: "db", Op: cmd}
		if cmd == "explain" {
			if w == nil {
				return fatal(stderr, fmt.Errorf("explain applies to decompositions; %s is table-backed (compile with wsd first)", *dbPath))
			}
			req.Op = "cert-ans"
		}
		// The server reads empty query text as the identity, so the
		// answer commands, whose query is not optional, check for it here.
		if (req.Op == "poss-ans" || req.Op == "cert-ans") && *queryPath == "" {
			return fatal(stderr, fmt.Errorf("missing -query"))
		}
		texts := []struct {
			dst  *string
			path string
		}{{&req.Inst, *instPath}, {&req.Facts, *factsPath}, {&req.Query, *queryPath}, {&req.Query2, *query2Path}}
		for _, t := range texts {
			if t.path == "" {
				continue
			}
			b, err := os.ReadFile(t.path)
			if err != nil {
				return fatal(stderr, err)
			}
			*t.dst = string(b)
		}
		s := server.New(server.Config{Workers: *workersN})
		if err := register(s, req.DB, src); err != nil {
			return fatal(stderr, err)
		}
		if src2 != nil {
			req.DB2 = "db2"
			if err := register(s, req.DB2, src2); err != nil {
				return fatal(stderr, err)
			}
		}
		resp, err := s.DoCall(&req, server.CallOptions{Trace: tr, Explain: cmd == "explain"})
		if cmd == "explain" {
			return explain(stdout, stderr, resp, err, *jsonOut)
		}
		if err != nil {
			return fatal(stderr, err)
		}
		switch {
		case resp.Answer != nil && *resp.Answer:
			fmt.Fprintln(stdout, "yes")
		case resp.Answer != nil:
			fmt.Fprintln(stdout, "no")
		case cmd == "count":
			fmt.Fprintln(stdout, resp.Count)
		default:
			io.WriteString(stdout, resp.Facts)
		}
	default:
		return usage(stderr)
	}
	return 0
}

// explain prints the EXPLAIN record of a cert-ans request: the
// response's plan, or the partial, error-marked plan a refused query
// carries in its *server.PlanError.
func explain(stdout, stderr io.Writer, resp *server.Response, err error, jsonOut bool) int {
	var pe *server.PlanError
	switch {
	case err == nil:
		pe = &server.PlanError{Plan: resp.Plan}
	case !errors.As(err, &pe):
		return fatal(stderr, err)
	}
	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(pe.Plan); err != nil {
			return fatal(stderr, err)
		}
	} else {
		pe.Plan.WriteText(stdout)
	}
	if err != nil {
		// The partial plan above shows where it stopped; the exit code
		// and message match what cert-ans would have reported.
		return fatal(stderr, err)
	}
	return 0
}

// loadDB reads the database file named by flag name, refusing the
// @query and @update files that belong to the query and update flags.
func loadDB(name, path string, c *obs.Cost) (*parse.Source, error) {
	if path == "" {
		return nil, fmt.Errorf("missing %s", name)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	src, err := parse.ParseSource(c.ParseReader(f))
	switch {
	case err != nil:
		return nil, err
	case src.Query != nil:
		return nil, fmt.Errorf("%s is a @query file; databases go to %s, queries to -query or -query2", path, name)
	case src.Update != nil:
		return nil, fmt.Errorf("%s is an @update file; databases go to %s, update programs to -update", path, name)
	}
	return src, nil
}

// register adds a parsed database to s under name, on its backend.
func register(s *server.Server, name string, src *parse.Source) error {
	if src.WSD != nil {
		return s.AddWSD(name, src.WSD)
	}
	return s.AddTables(name, src.DB)
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

func fatal(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "pwq:", err)
	return 2
}

func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, "usage: pwq {memb|uniq|cont|poss|cert|poss-ans|cert-ans|explain|count|sample|worlds|kind|update} -db FILE [...]")
	return 2
}
