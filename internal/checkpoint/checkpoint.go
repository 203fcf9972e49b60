// Package checkpoint implements durable state for the learned optimizer: a
// versioned, self-describing binary container that captures everything a
// Neo instance needs to survive a restart — value-network weights and Adam
// optimizer state, the fitted target transform, the learned row-vector
// embedding, the experience pool, per-query baselines, the serving-snapshot
// version and the training RNG position.
//
// # Format
//
// A checkpoint is a header followed by named sections:
//
//	magic          8 bytes  "NEOCKPT1"
//	format version u32      (currently 1)
//	section count  u32
//	section table:          name (u16 len + bytes), payload length u64,
//	                        CRC-32 (IEEE) of the payload
//	payloads, concatenated in table order
//
// Readers locate sections by name, so future format versions can append new
// sections without breaking older payload codecs; unknown sections are
// skipped. Every payload is integrity-checked against its CRC before it is
// parsed, so corruption fails with ErrCorrupt instead of a garbage network.
// Section payloads use the little-endian primitives of package wire; the
// network/embedding payloads are produced by the Save methods of the
// respective layers (valuenet.Network.Save streams nn and treeconv state
// through each layer's parameter accessors).
//
// What a checkpoint deliberately does NOT capture: the synthetic database
// and statistics (regenerated deterministically from the system seed), plan
// caches (rebuilt on demand; plans are re-searched bit-identically from the
// restored weights), and the engine's execution-noise stream position (only
// simulated-latency noise depends on it, never plan choice).
//
// Decoding never touches live state: Load builds everything it returns —
// the network included — and either hands back a complete State for
// core.Neo.Restore to swap in, or an error wrapping one of the sentinels
// below. A container that fails at its last byte has changed nothing.
//
// The container doubles as the wire artifact of the distributed serving
// tier: trainers publish snapshots and replicas ship experience batches
// (SaveExperience/LoadExperience) as NEOCKPT1 containers over HTTP, so a
// network payload gets exactly the CRC and version checks a file does. The
// byte-level layout is frozen as a stable protocol in FORMAT.md next to
// this package.
package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"neo/internal/core"
	"neo/internal/embedding"
	"neo/internal/valuenet"
	"neo/internal/wire"
)

// Magic identifies a Neo checkpoint file.
const Magic = "NEOCKPT1"

// FormatVersion is the current container format version.
const FormatVersion = 1

// Sentinel errors. Load failures wrap one of these, so callers can
// distinguish "not a checkpoint" from "damaged checkpoint" from "checkpoint
// from an incompatible build/configuration".
var (
	// ErrBadMagic means the stream does not start with the checkpoint magic.
	ErrBadMagic = errors.New("checkpoint: bad magic (not a checkpoint file)")
	// ErrUnsupportedVersion means the checkpoint was written by a newer
	// format than this build understands.
	ErrUnsupportedVersion = errors.New("checkpoint: unsupported format version")
	// ErrTruncated means the stream ended before the declared contents.
	ErrTruncated = errors.New("checkpoint: truncated")
	// ErrCorrupt means a section payload failed its CRC check.
	ErrCorrupt = errors.New("checkpoint: corrupt section payload")
	// ErrMissingSection means a required section is absent.
	ErrMissingSection = errors.New("checkpoint: missing section")
	// ErrMismatch means the checkpoint does not fit the receiving system
	// (different architecture, dimensions or encoding).
	ErrMismatch = errors.New("checkpoint: state does not match receiving system")
)

// maxRNGDraws bounds the training-RNG draw count a checkpoint may declare:
// restoring replays the stream one draw at a time, so a crafted (CRC-valid)
// count must fail loudly instead of hanging the loader. 2^34 draws replay in
// well under a minute and exceed any realistic training history by orders of
// magnitude (a retraining round draws tens of thousands).
const maxRNGDraws = 1 << 34

// sectionPrealloc caps what readContainer allocates for a section on the
// strength of its declared length alone.
const sectionPrealloc = 64 << 10

// Section names.
const (
	sectionMeta       = "meta"
	sectionNet        = "net"
	sectionEmbedding  = "embedding"
	sectionExperience = "experience"
)

// State is everything a checkpoint carries: the learned state core.Neo
// hands over in one piece (core.Neo.State / Restore) plus the two things
// that live in the featurizer's configuration rather than in Neo.
type State struct {
	core.State
	// Encoding is the featurization the system was configured with.
	Encoding string
	// Embedding is the row-vector model, nil for encodings without one.
	Embedding *embedding.Model
}

// Save writes a checkpoint for the given state.
func Save(w io.Writer, st *State) error {
	var meta bytes.Buffer
	if err := wire.WriteString(&meta, st.Encoding); err != nil {
		return err
	}
	if err := wire.WriteU64(&meta, st.NetVersion); err != nil {
		return err
	}
	if err := wire.WriteI64(&meta, st.RNGSeed); err != nil {
		return err
	}
	if err := wire.WriteU64(&meta, st.RNGDraws); err != nil {
		return err
	}
	if err := wire.WriteI64(&meta, int64(st.TrainTime)); err != nil {
		return err
	}

	var net bytes.Buffer
	if err := st.Net.Save(&net); err != nil {
		return err
	}

	sections := []section{
		{name: sectionMeta, payload: meta.Bytes()},
		{name: sectionNet, payload: net.Bytes()},
	}
	if st.Embedding != nil {
		var emb bytes.Buffer
		if err := st.Embedding.Save(&emb); err != nil {
			return err
		}
		sections = append(sections, section{name: sectionEmbedding, payload: emb.Bytes()})
	}
	var exp bytes.Buffer
	if err := writeExperience(&exp, st.Experience, st.Baselines); err != nil {
		return err
	}
	sections = append(sections, section{name: sectionExperience, payload: exp.Bytes()})
	return writeContainer(w, sections)
}

// Load decodes a checkpoint into a complete State, or fails with no side
// effect on anything: the network is built here, fresh, for the receiver's
// dimensions and configuration (a saved network of another architecture is
// ErrMismatch), so nothing the caller serves from is touched until it hands
// the result to core.Neo.Restore. A non-empty wantEncoding is checked against
// the saved encoding first — a checkpoint from a differently configured system
// may nevertheless share dimensions (1-hot vs histogram). Every error wraps
// one of the package sentinels.
func Load(r io.Reader, queryDim, planDim int, cfg valuenet.Config, wantEncoding string) (*State, error) {
	secs, err := readContainer(r)
	if err != nil {
		return nil, err
	}
	meta, err := secs.reader(sectionMeta)
	if err != nil {
		return nil, err
	}
	st := &State{}
	if st.Encoding, err = wire.ReadString(meta); err != nil {
		return nil, malformed(sectionMeta, err)
	}
	if st.NetVersion, err = wire.ReadU64(meta); err != nil {
		return nil, malformed(sectionMeta, err)
	}
	if st.RNGSeed, err = wire.ReadI64(meta); err != nil {
		return nil, malformed(sectionMeta, err)
	}
	if st.RNGDraws, err = wire.ReadU64(meta); err != nil {
		return nil, malformed(sectionMeta, err)
	}
	tt, err := wire.ReadI64(meta)
	if err != nil {
		return nil, malformed(sectionMeta, err)
	}
	st.TrainTime = time.Duration(tt)
	if st.RNGDraws > maxRNGDraws {
		return nil, fmt.Errorf("%w: implausible RNG draw count %d (limit %d)",
			ErrCorrupt, st.RNGDraws, uint64(maxRNGDraws))
	}
	if wantEncoding != "" && st.Encoding != wantEncoding {
		return nil, fmt.Errorf("%w: checkpoint encoding %q, want %q",
			ErrMismatch, st.Encoding, wantEncoding)
	}

	net, err := secs.reader(sectionNet)
	if err != nil {
		return nil, err
	}
	st.Net = valuenet.New(queryDim, planDim, cfg)
	if err := st.Net.Load(net); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMismatch, err)
	}

	if emb, ok := secs[sectionEmbedding]; ok {
		if st.Embedding, err = embedding.LoadModel(bytes.NewReader(emb)); err != nil {
			return nil, malformed(sectionEmbedding, err)
		}
	}

	exp, err := secs.reader(sectionExperience)
	if err != nil {
		return nil, err
	}
	if st.Experience, st.Baselines, err = readExperience(exp); err != nil {
		return nil, malformed(sectionExperience, err)
	}
	return st, nil
}

// sections are a container's CRC-verified payloads by name.
type sections map[string][]byte

// reader returns a reader over the named section's payload.
func (s sections) reader(name string) (*bytes.Reader, error) {
	payload, ok := s[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrMissingSection, name)
	}
	return bytes.NewReader(payload), nil
}

// malformed reports a section whose payload passed its CRC but does not
// parse: the writer, not the transport, damaged it.
func malformed(name string, err error) error {
	return fmt.Errorf("%w: section %q: %v", ErrCorrupt, name, err)
}

type section struct {
	name    string
	payload []byte
}

func writeContainer(w io.Writer, sections []section) error {
	if _, err := io.WriteString(w, Magic); err != nil {
		return err
	}
	if err := wire.WriteU32(w, FormatVersion); err != nil {
		return err
	}
	if err := wire.WriteU32(w, uint32(len(sections))); err != nil {
		return err
	}
	for _, s := range sections {
		if len(s.name) > 0xffff {
			return fmt.Errorf("checkpoint: section name %q too long", s.name)
		}
		if err := wire.WriteU8(w, uint8(len(s.name)>>8)); err != nil {
			return err
		}
		if err := wire.WriteU8(w, uint8(len(s.name))); err != nil {
			return err
		}
		if _, err := io.WriteString(w, s.name); err != nil {
			return err
		}
		if err := wire.WriteU64(w, uint64(len(s.payload))); err != nil {
			return err
		}
		if err := wire.WriteU32(w, crc32.ChecksumIEEE(s.payload)); err != nil {
			return err
		}
	}
	for _, s := range sections {
		if _, err := w.Write(s.payload); err != nil {
			return err
		}
	}
	return nil
}

// readContainer parses the header and returns the CRC-verified payloads by
// section name.
func readContainer(r io.Reader) (sections, error) {
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, truncated(err)
	}
	if string(magic) != Magic {
		return nil, ErrBadMagic
	}
	version, err := wire.ReadU32(r)
	if err != nil {
		return nil, truncated(err)
	}
	if version > FormatVersion {
		return nil, fmt.Errorf("%w: file has version %d, this build reads <= %d",
			ErrUnsupportedVersion, version, FormatVersion)
	}
	count, err := wire.ReadU32(r)
	if err != nil {
		return nil, truncated(err)
	}
	if count > 1024 {
		return nil, fmt.Errorf("%w: implausible section count %d", ErrCorrupt, count)
	}
	type header struct {
		name string
		size uint64
		crc  uint32
	}
	headers := make([]header, count)
	for i := range headers {
		hi, err := wire.ReadU8(r)
		if err != nil {
			return nil, truncated(err)
		}
		lo, err := wire.ReadU8(r)
		if err != nil {
			return nil, truncated(err)
		}
		nameLen := int(hi)<<8 | int(lo)
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(r, name); err != nil {
			return nil, truncated(err)
		}
		size, err := wire.ReadU64(r)
		if err != nil {
			return nil, truncated(err)
		}
		if size > wire.MaxLen {
			return nil, fmt.Errorf("%w: section %q declares %d bytes", ErrCorrupt, name, size)
		}
		crc, err := wire.ReadU32(r)
		if err != nil {
			return nil, truncated(err)
		}
		headers[i] = header{name: string(name), size: size, crc: crc}
	}
	out := make(sections, count)
	for _, h := range headers {
		// The buffer grows with the bytes that actually arrive: a header may
		// declare up to wire.MaxLen bytes, and allocating the declared size
		// before reading would let a header-only container cost 256 MiB. A
		// reader that is itself in memory (a pulled snapshot) vouches for the
		// declared length with the bytes it holds, so it is read in one piece.
		prealloc := min(h.size, sectionPrealloc)
		if held, ok := r.(interface{ Len() int }); ok && uint64(held.Len()) >= h.size {
			prealloc = h.size
		}
		var buf bytes.Buffer
		buf.Grow(int(prealloc))
		if _, err := io.CopyN(&buf, r, int64(h.size)); err != nil {
			return nil, truncated(err)
		}
		payload := buf.Bytes()
		if crc32.ChecksumIEEE(payload) != h.crc {
			return nil, fmt.Errorf("%w: section %q fails CRC", ErrCorrupt, h.name)
		}
		out[h.name] = payload
	}
	return out, nil
}

// truncated maps short reads onto the ErrTruncated sentinel.
func truncated(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	return err
}
