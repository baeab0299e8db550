package query_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"pw/internal/algebra"
	"pw/internal/gen"
	"pw/internal/parse"
	"pw/internal/query"
	"pw/internal/table"
	"pw/internal/wsd"
	"pw/internal/wsdalg"
)

// writeWalk prints what the decision procedures, the server and the
// planner read off q's operator tree: per output Positive, the
// world-set operators and the Consts sequence; for the query its
// homomorphism marker, world-set operators, constants and read set; and
// the form the planner chooses on w ("-" without a decomposition or a
// planning record).
func writeWalk(b *bytes.Buffer, label string, q query.Algebra, w *wsd.WSD) {
	clauses := make([]string, len(q.Outs))
	for i, o := range q.Outs {
		clauses[i] = fmt.Sprintf("%s = %s", o.Name, o.Expr)
	}
	fmt.Fprintf(b, "%s: %s\n", label, strings.Join(clauses, "; "))
	for _, o := range q.Outs {
		fmt.Fprintf(b, "  %s: positive=%v worldset=%v consts=[%s]\n", o.Name,
			algebra.Positive(o.Expr), algebra.HasWorldSetOps(o.Expr), strings.Join(algebra.Consts(o.Expr), " "))
	}
	scans := "all"
	if rels, all := query.Scans(q); !all {
		scans = strings.Join(rels, " ")
	}
	fmt.Fprintf(b, "  hom-preserved=%v worldset=%v consts=[%s] scans=%s\n",
		query.IsHomPreserved(q), query.HasWorldSetOps(q), strings.Join(q.Consts(), " "), scans)
	chosen := "-"
	if w != nil {
		if _, info := wsdalg.Optimize(w, q); info != nil {
			chosen = info.Chosen
		}
	}
	fmt.Fprintf(b, "  chosen: %s\n", chosen)
}

// TestWalkGolden pins every structural reading of a query's operator
// tree — Positive, Consts (tree order, duplicates kept), world-set
// detection, the scanned relations and the planner's chosen form — over
// the generators' random queries (the planner property corpus is the
// first hundred world-set seeds), queries over two relations, and the
// @query files of examples/data planned on their databases. The golden
// was recorded before these readings were derived from one operand
// walk; it changes only with an intended change to one of them.
func TestWalkGolden(t *testing.T) {
	var b bytes.Buffer
	schema := table.Schema{{Name: "R", Arity: 2}}
	corpusWSD := func(seed int64) *wsd.WSD {
		w, err := gen.RandomWSD(seed, 3+int(seed)%2, 3, 2, 4)
		if err != nil {
			return nil
		}
		return w
	}
	for seed := int64(1); seed <= 200; seed++ {
		writeWalk(&b, fmt.Sprintf("wsa %d", seed), gen.RandomWSAQuery(seed, schema, 4, 2+int(seed)%2), corpusWSD(seed))
	}
	for seed := int64(1); seed <= 100; seed++ {
		writeWalk(&b, fmt.Sprintf("positive %d", seed), gen.RandomPositiveQuery(seed, schema, 4, 2+int(seed)%3), corpusWSD(seed))
	}
	two := table.Schema{{Name: "R", Arity: 2}, {Name: "S", Arity: 3}}
	for seed := int64(1); seed <= 50; seed++ {
		writeWalk(&b, fmt.Sprintf("wsa-rs %d", seed), gen.RandomWSAQuery(seed, two, 3, 3), nil)
		writeWalk(&b, fmt.Sprintf("positive-rs %d", seed), gen.RandomPositiveQuery(seed, two, 3, 3), nil)
	}
	dir := filepath.Join("..", "..", "examples", "data")
	names, err := filepath.Glob(filepath.Join(dir, "*.pw"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	load := func(path string) *parse.Source {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		src, err := parse.ParseSource(f)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return src
	}
	isQuery := regexp.MustCompile(`(?m)^@query`)
	for _, path := range names {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !isQuery.Match(data) {
			continue
		}
		// A query file's database is the file its name starts with:
		// sensors_hi.pw runs on sensors.pw.
		base := filepath.Base(path)
		db := load(filepath.Join(dir, strings.SplitN(base, "_", 2)[0]+".pw"))
		writeWalk(&b, base, *load(path).Query, db.WSD)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "walk.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Errorf("structural readings differ from testdata/walk.golden:\n%s", b.String())
	}
}
