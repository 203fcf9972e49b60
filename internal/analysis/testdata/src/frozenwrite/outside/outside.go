// Package outside is a neo-lint self-test fixture: code in another package
// than a frozen type's may hold and read its values but must build them
// through the owning package's constructors.
package outside

import "neo/internal/analysis/testdata/src/frozenwrite"

func literal() *frozenwrite.Snapshot {
	return &frozenwrite.Snapshot{Version: 1} // want "composite literal of frozen type"
}

func constructed() *frozenwrite.Snapshot {
	return frozenwrite.Construct(1) // through the constructor: no finding
}

func slices(s *frozenwrite.Snapshot) []*frozenwrite.Snapshot {
	return []*frozenwrite.Snapshot{s} // a slice of them is not one of them: no finding
}
