// Layer state serialization. Every layer already exposes its trainable
// parameters in a stable order through Params(); Save/Load stream those
// vectors (name, length, values) through that accessor, verifying on load
// that the receiver's architecture matches what was written. Values are
// copied in place so views that share parameter storage (snapshot clones do
// not, but shadow-gradient parameters do) observe the restored weights.
package nn

import (
	"fmt"
	"io"

	"neo/internal/wire"
)

// SaveParams writes the parameters (name, length, values) in slice order.
func SaveParams(w io.Writer, params []*Param) error {
	if err := wire.WriteU32(w, uint32(len(params))); err != nil {
		return err
	}
	for _, p := range params {
		if err := wire.WriteString(w, p.Name); err != nil {
			return err
		}
		if err := wire.WriteF64s(w, p.Value); err != nil {
			return err
		}
	}
	return nil
}

// LoadParams reads parameters written by SaveParams into the given slice,
// in place. The parameter count, every name and every length must match the
// receiver exactly; a mismatch means the serialized network has a different
// architecture and is reported as an error rather than silently mis-assigned.
func LoadParams(r io.Reader, params []*Param) error {
	n, err := wire.ReadU32(r)
	if err != nil {
		return err
	}
	if int(n) != len(params) {
		return fmt.Errorf("nn: state has %d parameters, receiver has %d", n, len(params))
	}
	for _, p := range params {
		name, err := wire.ReadString(r)
		if err != nil {
			return err
		}
		if name != p.Name {
			return fmt.Errorf("nn: state parameter %q does not match receiver parameter %q", name, p.Name)
		}
		if err := wire.ReadF64sInto(r, p.Value, "parameter "+p.Name); err != nil {
			return err
		}
	}
	return nil
}

// Save writes the layer's weights.
func (l *Linear) Save(w io.Writer) error { return SaveParams(w, l.Params()) }

// Load restores weights written by Save, in place.
func (l *Linear) Load(r io.Reader) error { return LoadParams(r, l.Params()) }

// Save writes the layer's gamma/beta vectors.
func (ln *LayerNorm) Save(w io.Writer) error { return SaveParams(w, ln.Params()) }

// Load restores state written by Save, in place.
func (ln *LayerNorm) Load(r io.Reader) error { return LoadParams(r, ln.Params()) }

// Save writes every Linear and LayerNorm parameter of the MLP.
func (m *MLP) Save(w io.Writer) error { return SaveParams(w, m.Params()) }

// Load restores state written by Save, in place. The receiver must have the
// same layer sizes as the saved MLP.
func (m *MLP) Load(r io.Reader) error { return LoadParams(r, m.Params()) }

// Save writes the optimizer state (step counter and first/second moments)
// aligned to the given parameter order — the same order that must be passed
// to Load. Parameters the optimizer has not stepped yet are recorded as
// empty, so a freshly created optimizer round-trips too.
func (a *Adam) Save(w io.Writer, params []*Param) error {
	if err := wire.WriteU64(w, uint64(a.step)); err != nil {
		return err
	}
	if err := wire.WriteU32(w, uint32(len(params))); err != nil {
		return err
	}
	for _, p := range params {
		m, hasM := a.m[p]
		v, hasV := a.v[p]
		if !hasM || !hasV {
			m, v = nil, nil
		}
		if err := wire.WriteF64s(w, m); err != nil {
			return err
		}
		if err := wire.WriteF64s(w, v); err != nil {
			return err
		}
	}
	return nil
}

// Load restores optimizer state written by Save. The params slice must list
// the same parameters, in the same order, as the one passed to Save; moment
// lengths are validated against each parameter's size.
func (a *Adam) Load(r io.Reader, params []*Param) error {
	step, err := wire.ReadU64(r)
	if err != nil {
		return err
	}
	n, err := wire.ReadU32(r)
	if err != nil {
		return err
	}
	if int(n) != len(params) {
		return fmt.Errorf("nn: optimizer state covers %d parameters, receiver has %d", n, len(params))
	}
	m := make(map[*Param][]float64, n)
	v := make(map[*Param][]float64, n)
	for _, p := range params {
		mv, err := wire.ReadF64s(r)
		if err != nil {
			return err
		}
		vv, err := wire.ReadF64s(r)
		if err != nil {
			return err
		}
		if len(mv) == 0 && len(vv) == 0 {
			continue // parameter never stepped when saved
		}
		if len(mv) != len(p.Value) || len(vv) != len(p.Value) {
			return fmt.Errorf("nn: optimizer moments for %q have %d/%d values, want %d",
				p.Name, len(mv), len(vv), len(p.Value))
		}
		m[p] = mv
		v[p] = vv
	}
	a.step = int(step)
	a.m = m
	a.v = v
	for _, lc := range a.live {
		a.relive(lc)
	}
	return nil
}
