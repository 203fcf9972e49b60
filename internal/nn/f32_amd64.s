// AVX2 float32 kernels for the inference pass's elementwise steps (see
// f32.go): layer norm, the leaky rectifier and the running maximum dynamic
// pooling folds. Like f64_amd64.s, each vectorises across independent
// elements only and never fuses a multiply-add, so every value is the Go
// loop's, the sign of a zero included; a NaN stays a NaN, though its
// payload, which Go leaves unspecified, may differ. Tails go through
// VMASKMOVPS with a lane mask from maskTable, passed as tab.

#include "textflag.h"

// lanes holds 0..7: the gather indices of row 0..7, before scaling by dim.
DATA lanes<>+0(SB)/4, $0
DATA lanes<>+4(SB)/4, $1
DATA lanes<>+8(SB)/4, $2
DATA lanes<>+12(SB)/4, $3
DATA lanes<>+16(SB)/4, $4
DATA lanes<>+20(SB)/4, $5
DATA lanes<>+24(SB)/4, $6
DATA lanes<>+28(SB)/4, $7
GLOBL lanes<>(SB), RODATA|NOPTR, $32

// TAILMASK32 loads into M the mask of tab (BX) whose first n lanes are set,
// for the n = R in 1..8; it clobbers R.
#define TAILMASK32(R, M) \
	DECQ    R \
	SHLQ    $5, R \
	VMOVDQU (BX)(R*1), M

// func layerNorm8(x, y, gamma, beta *float32, rows, dim int, eps float32, tab *int32)
//
// Normalises rows (1..8) consecutive dim-wide rows of x into y. The row
// statistics run with one row per lane, each lane adding its own row's
// values in ascending order as the Go loop does: mean = Σx / dim,
// variance = Σ(x − mean)² / dim, inv = 1 / sqrt(variance + eps). VSQRTPS is
// the SQRTSS the compiler makes of float32(math.Sqrt(float64(v))). The
// affine step then runs along each row: ((x − mean)·gamma)·inv + beta.
TEXT ·layerNorm8(SB), NOSPLIT, $64-64
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DI
	MOVQ gamma+16(FP), R8
	MOVQ beta+24(FP), R9
	MOVQ rows+32(FP), CX
	MOVQ dim+40(FP), DX
	MOVQ tab+56(FP), BX

	MOVQ         CX, AX
	TAILMASK32(AX, Y15)               // the rows' lanes
	VMOVQ        DX, X14
	VPBROADCASTD X14, Y14
	VPMULLD      lanes<>(SB), Y14, Y14 // lane r gathers from x + r·dim
	VCVTSI2SSQ   DX, X13, X13
	VBROADCASTSS X13, Y13              // float32(dim)

	VXORPS Y0, Y0, Y0 // Σx
	MOVQ   SI, AX
	XORQ   R10, R10

sum:
	CMPQ       R10, DX
	JGE        mean
	VMOVDQU    Y15, Y2
	VXORPS     Y1, Y1, Y1
	VGATHERDPS Y2, (AX)(Y14*4), Y1
	VADDPS     Y1, Y0, Y0
	ADDQ       $4, AX
	INCQ       R10
	JMP        sum

mean:
	VDIVPS Y13, Y0, Y0
	VXORPS Y3, Y3, Y3  // Σ(x − mean)²
	MOVQ   SI, AX
	XORQ   R10, R10

sumsq:
	CMPQ       R10, DX
	JGE        inv
	VMOVDQU    Y15, Y2
	VXORPS     Y1, Y1, Y1
	VGATHERDPS Y2, (AX)(Y14*4), Y1
	VSUBPS     Y0, Y1, Y1
	VMULPS     Y1, Y1, Y1
	VADDPS     Y1, Y3, Y3
	ADDQ       $4, AX
	INCQ       R10
	JMP        sumsq

inv:
	VDIVPS       Y13, Y3, Y3
	VBROADCASTSS eps+48(FP), Y4
	VADDPS       Y4, Y3, Y3
	VSQRTPS      Y3, Y3
	MOVL         $0x3f800000, AX
	VMOVQ        AX, X4
	VBROADCASTSS X4, Y4
	VDIVPS       Y3, Y4, Y3
	VMOVUPS      Y0, 0(SP)  // the rows' means
	VMOVUPS      Y3, 32(SP) // and inverse deviations

	MOVQ DX, AX
	ANDQ $7, AX
	JZ   rows
	TAILMASK32(AX, Y12) // the columns past the last whole 8

rows:
	XORQ R10, R10

row:
	CMPQ         R10, CX
	JGE          done
	VBROADCASTSS (SP)(R10*4), Y5
	VBROADCASTSS 32(SP)(R10*4), Y6
	XORQ         R11, R11

col8:
	LEAQ    8(R11), AX
	CMPQ    AX, DX
	JGT     coltail
	VMOVUPS (SI)(R11*4), Y1
	VSUBPS  Y5, Y1, Y1
	VMULPS  (R8)(R11*4), Y1, Y1
	VMULPS  Y6, Y1, Y1
	VADDPS  (R9)(R11*4), Y1, Y1
	VMOVUPS Y1, (DI)(R11*4)
	MOVQ    AX, R11
	JMP     col8

coltail:
	CMPQ       R11, DX
	JGE        nextrow
	VMASKMOVPS (SI)(R11*4), Y12, Y1
	VMASKMOVPS (R8)(R11*4), Y12, Y2
	VMASKMOVPS (R9)(R11*4), Y12, Y3
	VSUBPS     Y5, Y1, Y1
	VMULPS     Y2, Y1, Y1
	VMULPS     Y6, Y1, Y1
	VADDPS     Y3, Y1, Y1
	VMASKMOVPS Y1, Y12, (DI)(R11*4)

nextrow:
	LEAQ (SI)(DX*4), SI
	LEAQ (DI)(DX*4), DI
	INCQ R10
	JMP  row

done:
	VZEROUPPER
	RET

// LEAKY scales Y1 by 1 where it is not below zero and by alpha (Y5) where
// it is: the compare is false for NaN and −0, which pass through ·1.
#define LEAKY \
	VCMPPS    $1, Y6, Y1, Y2 \
	VBLENDVPS Y2, Y5, Y4, Y3 \
	VMULPS    Y3, Y1, Y1

// func leaky8(xs *float32, n int, alpha float32, tab *int32)
//
// xs[i] *= 1 or alpha, as xs[i] < 0, for i < n.
TEXT ·leaky8(SB), NOSPLIT, $0-32
	MOVQ         xs+0(FP), SI
	MOVQ         n+8(FP), CX
	MOVQ         tab+24(FP), BX
	VBROADCASTSS alpha+16(FP), Y5
	MOVL         $0x3f800000, AX
	VMOVQ        AX, X4
	VBROADCASTSS X4, Y4
	VXORPS       Y6, Y6, Y6
	XORQ         AX, AX

lk8:
	LEAQ    8(AX), DX
	CMPQ    DX, CX
	JGT     lktail
	VMOVUPS (SI)(AX*4), Y1
	LEAKY
	VMOVUPS Y1, (SI)(AX*4)
	MOVQ    DX, AX
	JMP     lk8

lktail:
	MOVQ       CX, DX
	SUBQ       AX, DX
	JZ         lkdone
	TAILMASK32(DX, Y7)
	VMASKMOVPS (SI)(AX*4), Y7, Y1
	LEAKY
	VMASKMOVPS Y1, Y7, (SI)(AX*4)

lkdone:
	VZEROUPPER
	RET

// func foldMax8(acc, vs *float32, n int, tab *int32)
//
// acc[i] = vs[i] > acc[i] ? vs[i] : acc[i] for i < n. VMAXPS returns its
// second source unless its first is greater — on NaN either side and on
// equal values, signed zeros included — so vs goes first and acc second.
TEXT ·foldMax8(SB), NOSPLIT, $0-32
	MOVQ acc+0(FP), DI
	MOVQ vs+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ tab+24(FP), BX
	XORQ AX, AX

fm8:
	LEAQ    8(AX), DX
	CMPQ    DX, CX
	JGT     fmtail
	VMOVUPS (SI)(AX*4), Y1
	VMAXPS  (DI)(AX*4), Y1, Y1
	VMOVUPS Y1, (DI)(AX*4)
	MOVQ    DX, AX
	JMP     fm8

fmtail:
	MOVQ       CX, DX
	SUBQ       AX, DX
	JZ         fmdone
	TAILMASK32(DX, Y7)
	VMASKMOVPS (SI)(AX*4), Y7, Y1
	VMASKMOVPS (DI)(AX*4), Y7, Y2
	VMAXPS     Y2, Y1, Y1
	VMASKMOVPS Y1, Y7, (DI)(AX*4)

fmdone:
	VZEROUPPER
	RET
