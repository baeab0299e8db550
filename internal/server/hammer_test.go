// The concurrency hammer: many goroutines fire mixed cached and
// uncached queries across two resident databases (one decomposition,
// one conditioned-table) while another goroutine reloads one of them,
// and every single answer is compared against fresh single-threaded
// engine output computed up front. Run under -race in CI, this is the
// test that the lock discipline, the caches, and the singleflight group
// never leak one request's state into another's answer.
package server_test

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"pw/internal/decide"
	"pw/internal/parse"
	"pw/internal/query"
	"pw/internal/server"
	"pw/internal/wsdalg"
)

// hammerShot is one precomputed request/expected-answer pair.
type hammerShot struct {
	name string
	req  server.Request
	// exactly one of want*, per the op's response field
	wantYes   *bool
	wantCount string
	wantFacts string // canonical text via parse round-trip
}

// canonInstance reduces instance text to a canonical form for equality.
// It must stay t-free: the hammer calls it from worker goroutines.
func canonInstance(text string) (string, error) {
	inst, err := parse.ParseInstance(strings.NewReader(text))
	if err != nil {
		return "", fmt.Errorf("parse answer instance: %v\n%s", err, text)
	}
	var b strings.Builder
	if err := parse.PrintInstance(&b, inst); err != nil {
		return "", err
	}
	return b.String(), nil
}

// buildShots derives the oracle with freshly parsed databases and the
// sequential engines (Workers: 1) — the single-threaded pwq answers the
// server under load must reproduce.
func buildShots(t *testing.T) []hammerShot {
	t.Helper()
	b := func(v bool) *bool { return &v }
	seq := decide.Options{Workers: 1}

	load := func(path string) *parse.Source {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		src, err := parse.ParseSource(f)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	sensors := load(sensorsPath).WSD
	personnel := load(personnelPath).DB
	world := mustRead(t, worldPath)

	var shots []hammerShot

	// Decomposition fact probes: resident-WSD fast path, no cache.
	shots = append(shots,
		hammerShot{name: "sensors memb world",
			req:     server.Request{DB: "sensors", Op: "memb", Inst: world},
			wantYes: b(true)},
		hammerShot{name: "sensors poss s00 hi",
			req:     server.Request{DB: "sensors", Op: "poss", Facts: "@relation Reading(2)\n  fact: s00 hi\n"},
			wantYes: b(true)},
		hammerShot{name: "sensors cert hub",
			req:     server.Request{DB: "sensors", Op: "cert", Facts: "@relation Reading(2)\n  fact: hub online\n"},
			wantYes: b(true)},
		hammerShot{name: "sensors cert s00 hi",
			req:     server.Request{DB: "sensors", Op: "cert", Facts: "@relation Reading(2)\n  fact: s00 hi\n"},
			wantYes: b(false)},
		hammerShot{name: "sensors count",
			req:       server.Request{DB: "sensors", Op: "count"},
			wantCount: sensors.Count().String()},
	)

	// Decomposition query answers: a family of distinct selections so
	// the answer cache sees both hits and misses under load.
	for _, sel := range []string{"hi", "lo", "online"} {
		q := fmt.Sprintf("@query q\n  out: Q = select[#value = %s](Reading(sensor value))\n", sel)
		src, err := parse.ParseSource(strings.NewReader(q))
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range []string{"poss-ans", "cert-ans"} {
			a, _, _, err := wsdalg.Eval(sensors, *src.Query, wsdalg.Options{Decision: wsdalg.Written(*src.Query)})
			if err != nil {
				t.Fatal(err)
			}
			inst, err := a.Instance(op == "poss-ans")
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			if err := parse.PrintInstance(&sb, inst); err != nil {
				t.Fatal(err)
			}
			want := sb.String()
			shots = append(shots, hammerShot{
				name:      fmt.Sprintf("sensors %s %s", op, sel),
				req:       server.Request{DB: "sensors", Op: op, Query: q},
				wantFacts: want,
			})
		}
	}

	// Table-backend probes through the decision engine and its caches.
	certAns, err := seq.CertainAnswers(query.Identity{}, personnel)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := parse.PrintInstance(&sb, certAns); err != nil {
		t.Fatal(err)
	}
	shots = append(shots, hammerShot{name: "personnel cert-ans identity",
		req:       server.Request{DB: "personnel", Op: "cert-ans"},
		wantFacts: sb.String()})
	shots = append(shots,
		hammerShot{name: "personnel poss carol eng",
			req:     server.Request{DB: "personnel", Op: "poss", Facts: "@relation Emp(2)\n  fact: carol eng\n"},
			wantYes: b(true)},
		hammerShot{name: "personnel cert alice",
			req:     server.Request{DB: "personnel", Op: "cert", Facts: "@relation Emp(2)\n  fact: alice sales\n"},
			wantYes: b(true)},
		hammerShot{name: "cont sensors sensors",
			req:     server.Request{DB: "sensors", Op: "cont", DB2: "sensors"},
			wantYes: b(true)},
	)
	return shots
}

func TestConcurrentMixedLoadMatchesSequentialAnswers(t *testing.T) {
	shots := buildShots(t)
	s := newTestServer(t, server.Config{Workers: 8, CacheSize: 64})

	const (
		goroutines = 8
		rounds     = 30
	)
	var wg sync.WaitGroup
	errc := make(chan error, goroutines+1)

	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Stagger the shot order per goroutine so cache hits,
				// misses, and coalesced flights interleave.
				shot := shots[(r*goroutines+g*7+r)%len(shots)]
				resp, err := s.Do(&shot.req)
				if err != nil {
					errc <- fmt.Errorf("%s: %v", shot.name, err)
					return
				}
				switch {
				case shot.wantYes != nil:
					if resp.Answer == nil || *resp.Answer != *shot.wantYes {
						errc <- fmt.Errorf("%s: answer = %v, want %v", shot.name, resp.Answer, *shot.wantYes)
						return
					}
				case shot.wantCount != "":
					if resp.Count != shot.wantCount {
						errc <- fmt.Errorf("%s: count = %s, want %s", shot.name, resp.Count, shot.wantCount)
						return
					}
				default:
					got, err := canonInstance(resp.Facts)
					if err != nil {
						errc <- fmt.Errorf("%s: %v", shot.name, err)
						return
					}
					if got != shot.wantFacts {
						errc <- fmt.Errorf("%s: answers diverged under load:\n%s\nwant\n%s",
							shot.name, resp.Facts, shot.wantFacts)
						return
					}
				}
			}
		}(g)
	}

	// Concurrent reloads of the decomposition database: the file is
	// unchanged, so answers stay fixed while versions advance and every
	// cached entry for the old version goes stale mid-flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := s.Reload("sensors"); err != nil {
				errc <- fmt.Errorf("reload: %v", err)
				return
			}
		}
	}()

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	st := s.Stats()
	if st.AnswerHits == 0 {
		t.Fatalf("stats = %+v: the hammer never hit the answer cache", st)
	}
	if st.Errors != 0 {
		t.Fatalf("stats = %+v: requests errored under load", st)
	}
	v, err := s.Do(&server.Request{DB: "sensors", Op: "count"})
	if err != nil {
		t.Fatal(err)
	}
	if v.Version != 6 {
		t.Fatalf("sensors version = %d after 5 reloads, want 6", v.Version)
	}
}
