// Package detrange is a neo-lint self-test fixture. Every want comment is
// an expected finding on its line; lines without one must stay silent. The
// fixture is loaded by fixtures_test.go with this package configured as
// determinism-critical.
package detrange

import (
	"fmt"
	"sort"
)

func appendUnsorted(m map[string]int) []string {
	var out []string
	for k := range m { // want "appends to out"
		out = append(out, k)
	}
	return out
}

func appendThenSort(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m { // collect-then-sort is the canonical fix: no finding
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sumFloats(m map[string]float64) float64 {
	var sum float64
	for _, v := range m { // want "accumulates into sum"
		sum += v
	}
	return sum
}

func countEntries(m map[string]int) int {
	n := 0
	for range m { // integer counting is exact and commutative: no finding
		n++
	}
	return n
}

func copyKeyed(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m { // writes keyed by the range key: no finding
		out[k] = v
	}
	return out
}

func writeUnkeyed(m map[string]int, dst map[int]string) {
	i := 0
	for k := range m { // want "writes dst"
		dst[i] = k
		i++
	}
}

func firstValue(m map[string]int) int {
	for _, v := range m { // want "returns a non-constant value"
		return v
	}
	return 0
}

func lastKey(m map[string]int) string {
	last := ""
	for k := range m { // want "overwrites last"
		last = k
	}
	return last
}

func callsOut(m map[string]int) {
	for k := range m { // want "calls out"
		observe(k)
	}
}

func observe(string) {}

func pureCalls(m map[string]int) {
	for k, v := range m { // fmt.Sprintf into a loop-local is pure: no finding
		s := fmt.Sprintf("%s=%d", k, v)
		_ = s
	}
}

func deleteSelf(m map[string]int) {
	for k := range m { // deleting the range key is the sanctioned idiom
		if k == "" {
			delete(m, k)
		}
	}
}

func deleteOther(m map[string]int) {
	for k := range m { // want "deletes a key other than the range key"
		delete(m, k+"-alias")
	}
}

func suppressed(m map[string]int) []string {
	var out []string
	//neo:lint-ok detrange fixture demonstrates a reviewed suppression site
	for k := range m {
		out = append(out, k)
	}
	return out
}

// Methods on generic receivers are checked like any other: the map ranged
// over may be a field of the instantiated receiver.
type registry[T float32 | float64] struct {
	byName map[string]T
}

func (r *registry[T]) total() T {
	var sum T
	for _, v := range r.byName { // want "accumulates into sum"
		sum += v
	}
	return sum
}

func (r *registry[T]) names() []string {
	out := make([]string, 0, len(r.byName))
	for k := range r.byName { // collect-then-sort inside a generic method: no finding
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
