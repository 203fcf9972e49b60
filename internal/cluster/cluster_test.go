package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"neo/internal/cluster/proto"
	"neo/pkg/neo"
)

// testSystem assembles a small system (1-hot encoding, tiny value net) so
// cluster integration tests stay fast under -race. bootstrap selects whether
// it is trained from the expert (a trainer) or left fresh (a replica that
// will pull a snapshot).
func testSystem(t testing.TB, bootstrap bool) (*neo.System, []*neo.Query) {
	t.Helper()
	sys, err := neo.Open(neo.Config{
		Dataset:          "imdb",
		Engine:           "postgres",
		Encoding:         neo.OneHot,
		Scale:            0.15,
		Seed:             7,
		SearchExpansions: 24,
		Episodes:         1,
		ValueNet: &neo.ValueNetConfig{
			QueryLayers:  []int{16, 8},
			TreeChannels: []int{8, 8},
			HeadLayers:   []int{8},
			LearningRate: 2e-3,
			UseLayerNorm: true,
			Seed:         3,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.Close() })
	wl, err := sys.GenerateWorkload(6)
	if err != nil {
		t.Fatal(err)
	}
	if bootstrap {
		if err := sys.Bootstrap(wl.Queries[:4]); err != nil {
			t.Fatal(err)
		}
	}
	return sys, wl.Queries
}

// specFor converts a workload query into the wire representation.
func specFor(q *neo.Query) proto.QuerySpec {
	spec := proto.QuerySpec{ID: q.ID, Relations: q.Relations}
	for _, j := range q.Joins {
		spec.Joins = append(spec.Joins, proto.JoinSpec{
			Left:  j.LeftTable + "." + j.LeftColumn,
			Right: j.RightTable + "." + j.RightColumn,
		})
	}
	for _, p := range q.Predicates {
		var raw json.RawMessage
		if p.Value.Kind == neo.IntValue(0).Kind {
			raw, _ = json.Marshal(p.Value.Int)
		} else {
			raw, _ = json.Marshal(p.Value.Str)
		}
		spec.Predicates = append(spec.Predicates, proto.PredicateSpec{
			Column: p.Table + "." + p.Column,
			Op:     p.Op.String(),
			Value:  raw,
		})
	}
	return spec
}

func postJSON(t testing.TB, url string, body any, out any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// fastClient keeps failure-path tests quick.
func fastClient() proto.Client {
	return proto.Client{Attempts: 1, Backoff: time.Millisecond, Timeout: time.Second}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(3 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
