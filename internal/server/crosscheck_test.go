// Differential validation of the server path: seeded random
// decompositions and table databases served through the in-process
// HTTP handler, every decision and answer operation checked against the
// per-world oracle by the shared metamorphic harness. Identity cases
// exercise the full operation set (MEMB/POSS/CERT/UNIQ/count ride the
// JSON wire format both ways); the view suites in internal/wsdalg add
// the query path.
package server_test

import (
	"fmt"
	"testing"

	"pw/internal/difftest"
	"pw/internal/gen"
	"pw/internal/table"
	"pw/internal/worlds"
)

func TestDifferentialServer(t *testing.T) {
	difftest.Run(t, difftest.Config{
		Tag:   "server",
		Cases: 60,
		Gen: func(seed int64) (*difftest.Case, bool) {
			w, err := gen.RandomWSD(seed, 3, 3, 2, 4)
			if err != nil {
				return nil, false
			}
			if !w.Count().IsInt64() || w.Count().Int64() > 200 {
				return nil, false
			}
			return &difftest.Case{
				Tag:    fmt.Sprintf("server seed %d", seed),
				Worlds: w.Expand(0),
				WSD:    w,
			}, true
		},
		Backends: []difftest.Backend{difftest.ServerBackend("server/http", 2)},
	})
}

// TestDifferentialServerTables checks the server's table path — memb,
// uniq, poss, cert, count, poss-ans and cert-ans on the decision engine
// — against the canonical world list of seeded Codd-, e-, i- and
// c-tables, the shapes of the decision engine's own suite.
func TestDifferentialServerTables(t *testing.T) {
	difftest.Run(t, difftest.Config{
		Tag:   "server-tables",
		Cases: 60,
		Gen: func(seed int64) (*difftest.Case, bool) {
			rows := 2 + int(seed)%2
			var d *table.Database
			switch seed % 4 {
			case 0:
				d = table.DB(gen.CoddTable(seed, "T", rows, 2, 4, 0.5))
			case 1:
				d = table.DB(gen.ETable(seed, "T", rows, 2, 4, 2, 0.5))
			case 2:
				d = table.DB(gen.ITable(seed, "T", rows, 2, 4, 2, 0.5))
			default:
				d = table.DB(gen.CTable(seed, "T", rows, 2, 4, 2, 0.5, 0.5))
			}
			if len(d.VarNames()) > 4 {
				return nil, false
			}
			W := worlds.All(d)
			if len(W) == 0 || len(W) > 400 {
				return nil, false
			}
			return &difftest.Case{Worlds: W, DB: d, Consts: d.ConstNames()}, true
		},
		Backends: []difftest.Backend{difftest.ServerBackend("server/http-tables", 2)},
	})
}
