// Stand-alone experience containers: the replica→trainer wire artifact of
// the distributed serving tier. A replica batches the (query, plan, latency)
// entries its /feedback endpoint collects and ships them to the trainer as a
// NEOCKPT1 container holding only the experience section — same magic, same
// section table, same CRC rules as a full checkpoint (see FORMAT.md), so the
// trainer validates network payloads with exactly the machinery (and
// sentinel errors) it already trusts for durable state.
package checkpoint

import (
	"bytes"
	"io"

	"neo/internal/core"
)

// SaveExperience writes a stand-alone experience container: a NEOCKPT1
// container whose only section is "experience" (no baselines). It is the
// body of the cluster's POST /experience RPC.
func SaveExperience(w io.Writer, entries []core.Entry) error {
	var exp bytes.Buffer
	if err := writeExperience(&exp, entries, nil); err != nil {
		return err
	}
	return writeContainer(w, []section{{name: sectionExperience, payload: exp.Bytes()}})
}

// LoadExperience reads a stand-alone experience container written by
// SaveExperience (a full checkpoint is also accepted — only its experience
// section is read). Corruption, truncation and version skew fail with the
// package's sentinel errors, so a trainer can distinguish a damaged batch
// from an incompatible peer.
func LoadExperience(r io.Reader) ([]core.Entry, error) {
	secs, err := readContainer(r)
	if err != nil {
		return nil, err
	}
	exp, err := secs.reader(sectionExperience)
	if err != nil {
		return nil, err
	}
	entries, _, err := readExperience(exp)
	if err != nil {
		return nil, malformed(sectionExperience, err)
	}
	return entries, nil
}
