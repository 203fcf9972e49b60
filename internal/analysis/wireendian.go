package analysis

import (
	"go/ast"
	"go/types"
)

// wireendianCheck enforces the frozen wire format two ways. First,
// binary.BigEndian and binary.NativeEndian are banned everywhere:
// internal/checkpoint/FORMAT.md freezes every on-disk and on-wire integer as
// little-endian, NativeEndian would make checkpoints non-portable across
// architectures, and a single big-endian field would corrupt the NEOCKPT1
// stream undetectably (the length-prefixed framing would mis-parse
// downstream sections). Second, outside the designated wire package, any
// other use of encoding/binary is flagged too — not because little-endian
// calls are wrong per se, but because scattering raw binary.Write/PutUint32
// calls around the tree is how a second, subtly different serialization
// dialect gets born. Encoding
// belongs behind internal/wire's helpers, which carry the format's framing,
// versioning and checksum rules.
var wireendianCheck = &Check{
	Name: "wireendian",
	Doc:  "big/native endianness anywhere, or raw encoding/binary use outside the wire package",
	Run:  runWireendian,
}

func runWireendian(p *Pass) {
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgIdent, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := p.Pkg.Info.Uses[pkgIdent].(*types.PkgName)
			if !ok || pn.Imported().Path() != "encoding/binary" {
				return true
			}
			switch sel.Sel.Name {
			case "BigEndian", "NativeEndian":
				p.Reportf(sel.Pos(), "binary.%s breaks the frozen little-endian wire format (internal/checkpoint/FORMAT.md); all wire integers are little-endian", sel.Sel.Name)
				return true
			}
			if p.Pkg.Path == p.Cfg.WirePkg {
				return true
			}
			// Naming a type (binary.ByteOrder in a signature) neither reads
			// nor writes bytes.
			if _, isType := p.Pkg.Info.Uses[sel.Sel].(*types.TypeName); isType {
				return true
			}
			p.Reportf(sel.Pos(), "raw encoding/binary use outside %s; route wire encoding through its helpers so the format stays in one place", p.Cfg.WirePkg)
			return true
		})
	}
}
