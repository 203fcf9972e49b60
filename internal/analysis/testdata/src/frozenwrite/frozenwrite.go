// Package frozenwrite is a neo-lint self-test fixture. Snapshot stands in
// for the repo's frozen snapshot types; fixtures_test.go configures it as
// frozen with build and Network.Publish as the designated writers — plus one
// FrozenTypes and one FrozenAllow entry that name nothing declared here,
// which strict mode reports at the package clause.
package frozenwrite // want "FrozenTypes entry neo/internal/analysis/testdata/src/frozenwrite.RenamedAway resolves to no type" want "FrozenAllow entry neo/internal/analysis/testdata/src/frozenwrite.Network.RenamedAway resolves to no function"

type Snapshot struct {
	Version int
	Weights []float32
}

type holder struct {
	snap *Snapshot
}

type Network struct {
	cur *Snapshot
}

func mutateField(s *Snapshot) {
	s.Version = 2 // want "mutates frozen type"
}

func mutateElem(s *Snapshot) {
	s.Weights[0] = 1 // want "mutates frozen type"
}

func mutateThroughChain(h holder) {
	h.snap.Version = 3 // want "mutates frozen type"
}

func overwriteWhole(s *Snapshot) {
	*s = Snapshot{} // want "mutates frozen type"
}

func (n *Network) Swap(s *Snapshot) {
	n.cur.Version++ // want "mutates frozen type"
	n.cur = s       // swapping the pointer itself is fine: no finding
}

func (n *Network) Publish(s *Snapshot) {
	n.cur = s
	n.cur.Version = 7 // designated writer (FrozenAllow): no finding
}

func rebind(s, other *Snapshot) *Snapshot {
	s = other // rebinding a variable is not mutation: no finding
	return s
}

// Construct is the constructor package outside must use.
func Construct(version int) *Snapshot {
	return &Snapshot{Version: version} // composite literal in the type's own package is construction
}

func build() *Snapshot {
	s := &Snapshot{}
	s.Version = 1 // designated constructor (FrozenAllow): no finding
	return s
}

func suppressedWrite(s *Snapshot) {
	s.Version = 9 //neo:lint-ok frozenwrite fixture demonstrates a reviewed in-place patch
}

// Panels is a frozen generic type (configured as frozenwrite.Panels): both
// an instantiated value and the receiver of one of its own methods are
// frozen, and a method can be a designated writer (Panels.pack).
type Panels[T float32 | float64] struct {
	W []T
}

func scale(p *Panels[float32]) {
	p.W[0] *= 2 // want "mutates frozen type"
}

func (p *Panels[T]) zero() {
	p.W[0] = 0 // want "mutates frozen type"
}

func (p *Panels[T]) pack(w []T) {
	p.W = w // designated writer on a generic receiver (FrozenAllow): no finding
}
