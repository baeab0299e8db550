// ServerBackend: the query server wrapped as a difftest Backend. Every
// operation rides the full production path — JSON request, the HTTP
// handler, the prepared-query and answer caches, the singleflight group
// — against an in-process server, so the metamorphic suites exercise
// exactly the code a network client hits. Answer operations run twice
// and return the repeat: a disagreement between the cached readout and
// the oracle (or a repeat that misses the cache) fails the suite.
package difftest

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"net/http"
	"net/http/httptest"
	"strings"

	"pw/internal/parse"
	"pw/internal/query"
	"pw/internal/rel"
	"pw/internal/server"
)

// ServerBackend answers through an in-process query server (one per
// case) loaded with the case's decomposition or, when the case has
// none, its table database. Cases with a query wire only the answer-set
// operations (the server's decision ops interrogate the stored
// database, not a view of it); identity cases wire the full set. On
// tables the answer comparisons are domain-restricted as DecideBackend's
// are: the server runs the same decision engine.
func ServerBackend(name string, workers int) Backend {
	return Backend{
		Name: name,
		Make: func(c *Case) (*Ops, error) {
			if c.Update != nil {
				return nil, errors.New("use ServerUpdateBackend for cases that carry an update")
			}
			s := server.New(server.Config{Workers: workers})
			var err error
			switch {
			case c.WSD != nil:
				err = s.AddWSD("case", c.WSD)
			case c.DB != nil:
				err = s.AddTables("case", c.DB)
			default:
				return nil, errors.New("case carries no database")
			}
			if err != nil {
				return nil, err
			}
			ops, err := serverOps(s.Handler(), c)
			if err == nil && c.WSD == nil {
				ops.AnswerDomain = answerDomain(c)
			}
			return ops, err
		},
	}
}

// serverOps wires the handler's current database state into the
// operation set: answer sets always, decision ops and count on identity
// cases (the server's decision ops interrogate the stored database, not
// a view of it).
func serverOps(h http.Handler, c *Case) (*Ops, error) {
	queryText, err := queryText(c.Q())
	if err != nil {
		return nil, err
	}
	ops := &Ops{
		PossAns: func() (*rel.Instance, error) {
			return serverAnswer(h, "poss-ans", queryText)
		},
		CertAns: func() (*rel.Instance, error) {
			return serverAnswer(h, "cert-ans", queryText)
		},
	}
	if query.IsIdentity(c.Q()) {
		ops.Member = func(i *rel.Instance) (bool, error) { return serverDecide(h, "memb", "inst", i) }
		ops.Possible = func(i *rel.Instance) (bool, error) { return serverDecide(h, "poss", "facts", i) }
		ops.Certain = func(i *rel.Instance) (bool, error) { return serverDecide(h, "cert", "facts", i) }
		ops.Unique = func(i *rel.Instance) (bool, error) { return serverDecide(h, "uniq", "inst", i) }
		ops.Count = func() (*big.Int, error) {
			resp, err := serverDo(h, &server.Request{DB: "case", Op: "count"})
			if err != nil {
				return nil, err
			}
			n, ok := new(big.Int).SetString(resp.Count, 10)
			if !ok {
				return nil, fmt.Errorf("server count %q is not a decimal", resp.Count)
			}
			return n, nil
		}
	}
	return ops, nil
}

// queryText renders the case's query as the server's wire form: the
// empty string for the identity, a printed @query block otherwise.
func queryText(q query.Query) (string, error) {
	if query.IsIdentity(q) {
		return "", nil
	}
	a, ok := q.(query.Algebra)
	if !ok {
		return "", fmt.Errorf("query %s has no wire form", q.Label())
	}
	var b strings.Builder
	if err := parse.PrintQuery(&b, a); err != nil {
		return "", err
	}
	return b.String(), nil
}

// serverDo round-trips one request through the handler.
func serverDo(h http.Handler, req *server.Request) (*server.Response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	r := httptest.NewRequest("POST", "/query", strings.NewReader(string(body)))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != 200 {
		return nil, fmt.Errorf("server %s: HTTP %d: %s", req.Op, w.Code, strings.TrimSpace(w.Body.String()))
	}
	var resp server.Response
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

func serverDecide(h http.Handler, op, field string, i *rel.Instance) (bool, error) {
	var b strings.Builder
	if err := parse.PrintInstance(&b, i); err != nil {
		return false, err
	}
	text := b.String()
	if text == "" {
		// The empty instance prints as nothing; the server reads an
		// omitted field as a missing argument, so send an explicit
		// comment-only body (which parses back to the empty instance).
		text = "# empty instance\n"
	}
	req := &server.Request{DB: "case", Op: op}
	if field == "inst" {
		req.Inst = text
	} else {
		req.Facts = text
	}
	resp, err := serverDo(h, req)
	if err != nil {
		return false, err
	}
	if resp.Answer == nil {
		return false, fmt.Errorf("server %s: response carries no answer", op)
	}
	return *resp.Answer, nil
}

// serverAnswer asks twice and returns the repeat, failing if the second
// request did not come from the answer cache — the suite then checks
// the cached readout against the oracle.
func serverAnswer(h http.Handler, op, queryText string) (*rel.Instance, error) {
	req := &server.Request{DB: "case", Op: op, Query: queryText}
	if _, err := serverDo(h, req); err != nil {
		return nil, err
	}
	resp, err := serverDo(h, req)
	if err != nil {
		return nil, err
	}
	if !resp.Cached {
		return nil, fmt.Errorf("server %s: repeat request missed the answer cache", op)
	}
	return parse.ParseInstance(strings.NewReader(resp.Facts))
}
