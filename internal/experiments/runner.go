package experiments

import (
	"fmt"
	"sort"
)

// ExperimentFunc is a single experiment.
type ExperimentFunc func(*Env) (*Report, error)

// Registry maps experiment identifiers to their implementations. The keys
// are the values of the -exp flag of cmd/neo-experiments.
func Registry() map[string]ExperimentFunc {
	return map[string]ExperimentFunc{
		"table2":         Table2,
		"fig9":           Figure9,
		"fig10":          Figure10,
		"fig11":          Figure11,
		"fig12":          Figure12,
		"fig13":          Figure13,
		"fig14":          Figure14,
		"fig15":          Figure15,
		"fig16":          Figure16,
		"fig17":          Figure17,
		"nodemo":         AblationNoDemonstration,
		"searchvsgreedy": AblationSearchVsGreedy,
		"treeconvvsflat": AblationTreeConvVsFlat,
	}
}

// Names returns the registered experiment names in a stable order.
func Names() []string {
	reg := Registry()
	out := make([]string, 0, len(reg))
	for k := range reg {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Run executes the named experiment.
func Run(name string, env *Env) (*Report, error) {
	fn, ok := Registry()[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", name, Names())
	}
	return fn(env)
}

// RunAll executes every registered experiment and returns the reports in
// name order. The first error aborts the run.
func RunAll(env *Env) ([]*Report, error) {
	var out []*Report
	for _, name := range Names() {
		rep, err := Run(name, env)
		if err != nil {
			return out, fmt.Errorf("experiments: %s: %w", name, err)
		}
		out = append(out, rep)
	}
	return out, nil
}
