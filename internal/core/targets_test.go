package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"neo/internal/expert"
	"neo/internal/plan"
	"neo/internal/query"
)

// addRandomPlans adds perQuery rounds of one random plan per rig query,
// each with a random latency.
func addRandomPlans(n *Neo, rig *testRig, perQuery int, seed int64) {
	rp := expert.NewRandomPlanner(rig.db.Catalog, seed)
	rng := rand.New(rand.NewSource(seed))
	for range perQuery {
		for _, q := range rig.wl.Queries {
			n.Experience.Add(q, rp.Plan(q), math.Exp(rng.Float64()*6))
		}
	}
}

// addBootstrapPlans adds perQuery rounds of the expert's plan for every rig
// query at its executed latency, scaled by a random factor when vary.
func addBootstrapPlans(tb testing.TB, n *Neo, rig *testRig, perQuery int, vary bool) {
	tb.Helper()
	plans := make([]*plan.Plan, len(rig.wl.Queries))
	lats := make([]float64, len(rig.wl.Queries))
	for i, q := range rig.wl.Queries {
		p, err := rig.expertFunc()(q)
		if err != nil {
			tb.Fatal(err)
		}
		if lats[i], _, err = n.Engine.Execute(p); err != nil {
			tb.Fatal(err)
		}
		plans[i] = p
	}
	rng := rand.New(rand.NewSource(7))
	for range perQuery {
		for i, q := range rig.wl.Queries {
			lat := lats[i]
			if vary {
				lat *= 0.5 + rng.Float64()
			}
			n.Experience.Add(q, plans[i], lat)
		}
	}
}

// requireTargetsMatchScan holds the target of every state a round of n
// keeps to the reference scan's, bit for bit. It replays the round's
// shuffle on a twin of the training rng to know which states were kept.
func requireTargetsMatchScan(t *testing.T, n *Neo) {
	t.Helper()
	entries := n.Experience.Entries()
	type state struct{ entry, index int }
	var states []state
	for e, entry := range entries {
		for i := range numStates(entry.Plan) {
			states = append(states, state{e, i})
		}
	}
	if len(states) > maxTrainSamples {
		twin := &countingSource{seed: n.rngSrc.seed, draws: n.rngSrc.draws}
		rand.New(twin).Shuffle(len(states), func(i, j int) { states[i], states[j] = states[j], states[i] })
		states = states[:maxTrainSamples]
	}
	samples := n.trainingSamplesLocked(maxTrainSamples)
	if len(samples) != len(states) {
		t.Fatalf("%d samples, want %d", len(samples), len(states))
	}
	mismatches := 0
	for i, st := range states {
		entry := entries[st.entry]
		partial := constructionStates(entry.Plan, plan.NewNodes())[st.index]
		want := refTarget(entries, entry, partial, n.cost)
		if got := samples[i].Target; math.Float64bits(got) != math.Float64bits(want) {
			if mismatches++; mismatches <= 5 {
				t.Errorf("state %s of %s: target %v, scan %v", partial, entry.Query.ID, got, want)
			}
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d of %d targets differ from the scan", mismatches, len(states))
	}
}

// TestTrainingTargetsMatchScan: every kept state's target is the reference
// scan's, bit for bit, over random plans (repeats among the small queries'),
// one plan per query repeated with equal and with different latencies, the
// relative cost with some baselines missing, a trimmed pool, and two queries
// whose plans have the same shape over the same relations but different
// predicates and latencies.
func TestTrainingTargetsMatchScan(t *testing.T) {
	rig := newRig(t, "postgres")
	fresh := func() *Neo { return New(rig.eng, rig.feat, rig.neo.Config) }
	corpora := map[string]func(n *Neo){
		"random": func(n *Neo) { addRandomPlans(n, rig, 40, 1) },
		"bootstrap-equal": func(n *Neo) {
			addBootstrapPlans(t, n, rig, 30, false)
		},
		"bootstrap-varied": func(n *Neo) {
			addBootstrapPlans(t, n, rig, 30, true)
			addRandomPlans(n, rig, 5, 2)
		},
		"relative-cost": func(n *Neo) {
			n.Config.Cost = RelativeCost
			for i, q := range rig.wl.Queries {
				if i%3 != 0 {
					n.SetBaseline(q.ID, float64(10*(i+1)))
				}
			}
			addRandomPlans(n, rig, 20, 3)
			addBootstrapPlans(t, n, rig, 5, true)
		},
		"trimmed": func(n *Neo) {
			addBootstrapPlans(t, n, rig, 3, true)
			addRandomPlans(n, rig, 40, 4)
			n.Experience.Trim(300)
		},
		"same-shape-other-predicates": func(n *Neo) {
			rp := expert.NewRandomPlanner(rig.db.Catalog, 5)
			rng := rand.New(rand.NewSource(5))
			for _, q := range rig.wl.Queries {
				other := query.New(q.ID+"/other", q.Relations, q.Joins, q.Predicates[min(1, len(q.Predicates)):])
				for range 8 {
					p := rp.Plan(q)
					lat := 100 + rng.Float64()*100
					n.Experience.Add(q, p, lat)
					n.Experience.Add(other, &plan.Plan{Query: other, Roots: p.Roots}, lat/10)
				}
			}
		},
	}
	for name, build := range corpora {
		t.Run(name, func(t *testing.T) {
			n := fresh()
			build(n)
			requireTargetsMatchScan(t, n)
		})
	}

	// The scan's own subplan check, also on partial plans no construction
	// state has: partly specified trees.
	t.Run("IsSubplanOf", func(t *testing.T) {
		q := query.New("q3", []string{"title", "movie_keyword", "keyword"}, nil, nil)
		complete := &plan.Plan{Query: q, Roots: []*plan.Node{
			plan.Join2(plan.HashJoin,
				plan.Join2(plan.MergeJoin, plan.Leaf("movie_keyword", plan.TableScan), plan.Leaf("title", plan.IndexScan)),
				plan.Leaf("keyword", plan.TableScan)),
		}}
		cases := []struct {
			name string
			p    *plan.Plan
			want bool
		}{
			{"initial plan is subplan of anything", plan.Initial(q, plan.NewNodes()), true},
			{"matching inner join", &plan.Plan{Query: q, Roots: []*plan.Node{
				plan.Join2(plan.MergeJoin, plan.Leaf("movie_keyword", plan.TableScan), plan.Leaf("title", plan.UnspecifiedScan)),
				plan.Leaf("keyword", plan.UnspecifiedScan),
			}}, true},
			{"wrong join operator", &plan.Plan{Query: q, Roots: []*plan.Node{
				plan.Join2(plan.LoopJoin, plan.Leaf("movie_keyword", plan.TableScan), plan.Leaf("title", plan.UnspecifiedScan)),
			}}, false},
			{"wrong scan type", &plan.Plan{Query: q, Roots: []*plan.Node{
				plan.Join2(plan.MergeJoin, plan.Leaf("movie_keyword", plan.IndexScan), plan.Leaf("title", plan.UnspecifiedScan)),
			}}, false},
			{"wrong orientation", &plan.Plan{Query: q, Roots: []*plan.Node{
				plan.Join2(plan.MergeJoin, plan.Leaf("title", plan.UnspecifiedScan), plan.Leaf("movie_keyword", plan.TableScan)),
			}}, false},
		}
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				if got := refIsSubplanOf(tc.p, complete); got != tc.want {
					t.Errorf("refIsSubplanOf = %v, want %v", got, tc.want)
				}
			})
		}
		// A forest (more than one root) is never a "complete" target.
		if refIsSubplanOf(&plan.Plan{Query: q, Roots: complete.Roots}, plan.Initial(q, plan.NewNodes())) {
			t.Errorf("refIsSubplanOf against a partial target should be false")
		}
	})
}

// BenchmarkTrainingSamples times one round's sample building, targets
// included, over the 12 rig queries at 1 008, 4 008 and 16 008 entries: random
// plans, and the expert's plan per query repeated.
func BenchmarkTrainingSamples(b *testing.B) {
	rig := newRig(b, "postgres")
	for _, corpus := range []string{"random", "bootstrap"} {
		for _, perQuery := range []int{84, 334, 1334} {
			n := New(rig.eng, rig.feat, rig.neo.Config)
			if corpus == "random" {
				addRandomPlans(n, rig, perQuery, 1)
			} else {
				addBootstrapPlans(b, n, rig, perQuery, false)
			}
			b.Run(fmt.Sprintf("%s/entries=%d", corpus, n.Experience.Len()), func(b *testing.B) {
				b.ReportAllocs()
				for range b.N {
					n.trainingSamplesLocked(maxTrainSamples)
				}
			})
		}
	}
}
