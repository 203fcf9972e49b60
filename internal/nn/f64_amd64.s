// AVX2 float64 kernels for the training tape and the optimizer (see f64.go).
// Each one vectorises across independent elements only — four outputs of a
// forward row, four columns of a weight-gradient row, four optimizer elements
// — and never across a reduction, so every accumulator receives the same
// addends in the same order as the Go loop it replaces. Products and sums
// are separate VMULPD and VADDPD instructions, never a fused multiply-add:
// the Go compiler rounds a*b + c twice on amd64, and so must these kernels.
// Tails go through VMASKMOVPD with a lane mask from maskTab.

#include "textflag.h"

// Load and store one 4-lane vector, whole or under the tail mask in Y15.
#define LDU(m, r) VMOVUPD m, r
#define STU(r, m) VMOVUPD r, m
#define LDM(m, r) VMASKMOVPD m, Y15, r
#define STM(r, m) VMASKMOVPD r, Y15, m

// TAILMASK loads into Y15 the mask whose first n lanes are set, n = CX − AX
// (1..4), from the table whose 16th entry BX points at.
#define TAILMASK \
	MOVQ    CX, DX \
	SUBQ    AX, DX \
	NEGQ    DX \
	VMOVDQU (BX)(DX*8), Y15

// PANELSTORE stores the accumulators Y0..Y3 into outputs R14.. of y (DI):
// all 16 when R12 − R14 ≥ 16 outputs remain, else the remaining ones under
// masks from the table R13 points at, and then jumps to done.
#define PANELSTORE \
	MOVQ       R12, AX \
	SUBQ       R14, AX \
	CMPQ       AX, $16 \
	JLT        partial \
	VMOVUPD    Y0, (DI)(R14*8) \
	VMOVUPD    Y1, 32(DI)(R14*8) \
	VMOVUPD    Y2, 64(DI)(R14*8) \
	VMOVUPD    Y3, 96(DI)(R14*8) \
	ADDQ       $16, R14 \
	JMP        block \
partial: \
	MOVQ       AX, DX \
	NEGQ       DX \
	LEAQ       (R13)(DX*8), DX \
	VMOVDQU    (DX), Y11 \
	VMASKMOVPD Y0, Y11, (DI)(R14*8) \
	CMPQ       AX, $4 \
	JLE        done \
	VMOVDQU    32(DX), Y11 \
	VMASKMOVPD Y1, Y11, 32(DI)(R14*8) \
	CMPQ       AX, $8 \
	JLE        done \
	VMOVDQU    64(DX), Y11 \
	VMASKMOVPD Y2, Y11, 64(DI)(R14*8) \
	CMPQ       AX, $12 \
	JLE        done \
	VMOVDQU    96(DX), Y11 \
	VMASKMOVPD Y3, Y11, 96(DI)(R14*8) \
	JMP        done

// PANELBANK adds the bank row A (16 outputs at A, A+32, A+64, A+96) times
// the broadcast input X into Y0..Y3.
#define PANELBANK(A, B, C, D, X) \
	VMULPD A, X, Y7 \
	VMULPD B, X, Y8 \
	VMULPD C, X, Y9 \
	VMULPD D, X, Y10 \
	VADDPD Y7, Y0, Y0 \
	VADDPD Y8, Y1, Y1 \
	VADDPD Y9, Y2, Y2 \
	VADDPD Y10, Y3, Y3

// func panel1(w, bias, x, y *float64, in, pad, out int, tab *int64)
//
// y[o] = bias[o] + Σ_i w[i·pad + o]·x[i] for o < out, 16 outputs per pass.
TEXT ·panel1(SB), NOSPLIT, $0-64
	MOVQ w+0(FP), SI
	MOVQ bias+8(FP), BX
	MOVQ x+16(FP), R9
	MOVQ y+24(FP), DI
	MOVQ in+32(FP), CX
	MOVQ pad+40(FP), DX
	MOVQ out+48(FP), R12
	MOVQ tab+56(FP), R13
	SHLQ $3, DX          // panel row stride in bytes
	XORQ R14, R14        // first output of the block

block:
	CMPQ    R14, R12
	JGE     done
	VMOVUPD (BX)(R14*8), Y0
	VMOVUPD 32(BX)(R14*8), Y1
	VMOVUPD 64(BX)(R14*8), Y2
	VMOVUPD 96(BX)(R14*8), Y3
	LEAQ    (SI)(R14*8), AX // panel cursor: input 0, output R14
	XORQ    R15, R15        // input

k1:
	CMPQ         R15, CX
	JGE          store
	VBROADCASTSD (R9)(R15*8), Y4
	PANELBANK((AX), 32(AX), 64(AX), 96(AX), Y4)
	ADDQ         DX, AX
	INCQ         R15
	JMP          k1

store:
	PANELSTORE

done:
	VZEROUPPER
	RET

// func panel3(w, bias, x0, x1, x2, y *float64, in, pad, out int, tab *int64)
//
// y[o] = bias[o] + Σ_i (w0[i][o]·x0[i] + w1[i][o]·x1[i] + w2[i][o]·x2[i]),
// added in that order, where bank b is the in×pad block at w + b·in·pad.
TEXT ·panel3(SB), NOSPLIT, $0-80
	MOVQ  w+0(FP), SI
	MOVQ  bias+8(FP), BX
	MOVQ  x0+16(FP), R9
	MOVQ  x1+24(FP), R10
	MOVQ  x2+32(FP), R11
	MOVQ  y+40(FP), DI
	MOVQ  in+48(FP), CX
	MOVQ  pad+56(FP), DX
	MOVQ  out+64(FP), R12
	MOVQ  tab+72(FP), R13
	SHLQ  $3, DX          // panel row stride in bytes
	MOVQ  CX, R8
	IMULQ DX, R8          // bank stride in bytes
	XORQ  R14, R14

block:
	CMPQ    R14, R12
	JGE     done
	VMOVUPD (BX)(R14*8), Y0
	VMOVUPD 32(BX)(R14*8), Y1
	VMOVUPD 64(BX)(R14*8), Y2
	VMOVUPD 96(BX)(R14*8), Y3
	LEAQ    (SI)(R14*8), AX
	XORQ    R15, R15

k3:
	CMPQ         R15, CX
	JGE          store
	VBROADCASTSD (R9)(R15*8), Y4
	VBROADCASTSD (R10)(R15*8), Y5
	VBROADCASTSD (R11)(R15*8), Y6
	PANELBANK((AX), 32(AX), 64(AX), 96(AX), Y4)
	PANELBANK((AX)(R8*1), 32(AX)(R8*1), 64(AX)(R8*1), 96(AX)(R8*1), Y5)
	PANELBANK((AX)(R8*2), 32(AX)(R8*2), 64(AX)(R8*2), 96(AX)(R8*2), Y6)
	ADDQ         DX, AX
	INCQ         R15
	JMP          k3

store:
	PANELSTORE

done:
	VZEROUPPER
	RET

// BACKWARD4 runs columns AX..AX+3 of backward4: the weight-gradient rows
// R12..R15 gain g_k·x, then the input gradient gains g_0·w_0 … g_3·w_3 in
// that order.
#define BACKWARD4(LD, ST) \
	LD((SI)(AX*8), Y4) \
	LD((R12)(AX*8), Y5) \
	LD((R13)(AX*8), Y7) \
	LD((R14)(AX*8), Y9) \
	LD((R15)(AX*8), Y11) \
	VMULPD Y4, Y0, Y6 \
	VMULPD Y4, Y1, Y8 \
	VMULPD Y4, Y2, Y10 \
	VMULPD Y4, Y3, Y12 \
	VADDPD Y6, Y5, Y5 \
	VADDPD Y8, Y7, Y7 \
	VADDPD Y10, Y9, Y9 \
	VADDPD Y12, Y11, Y11 \
	ST(Y5, (R12)(AX*8)) \
	ST(Y7, (R13)(AX*8)) \
	ST(Y9, (R14)(AX*8)) \
	ST(Y11, (R15)(AX*8)) \
	LD((DI)(AX*8), Y13) \
	LD((R8)(AX*8), Y5) \
	LD((R9)(AX*8), Y7) \
	LD((R10)(AX*8), Y9) \
	LD((R11)(AX*8), Y11) \
	VMULPD Y5, Y0, Y5 \
	VMULPD Y7, Y1, Y7 \
	VMULPD Y9, Y2, Y9 \
	VMULPD Y11, Y3, Y11 \
	VADDPD Y5, Y13, Y13 \
	VADDPD Y7, Y13, Y13 \
	VADDPD Y9, Y13, Y13 \
	VADDPD Y11, Y13, Y13 \
	ST(Y13, (DI)(AX*8))

// func backward4(w, wg, gp, x, gin *float64, n int, tab *int64)
//
// For the four consecutive n-wide rows w_k = w[k·n:] and wg_k = wg[k·n:], and g = gp[0:4]:
// wg_k[i] += g[k]·x[i] for each k, then gin[i] += g[k]·w_k[i] for k = 0..3.
TEXT ·backward4(SB), NOSPLIT, $0-56
	MOVQ         w+0(FP), R8
	MOVQ         wg+8(FP), R12
	MOVQ         gp+16(FP), AX
	MOVQ         x+24(FP), SI
	MOVQ         gin+32(FP), DI
	MOVQ         n+40(FP), CX
	MOVQ         tab+48(FP), BX
	VBROADCASTSD (AX), Y0
	VBROADCASTSD 8(AX), Y1
	VBROADCASTSD 16(AX), Y2
	VBROADCASTSD 24(AX), Y3
	MOVQ         CX, DX
	SHLQ         $3, DX       // row stride in bytes
	LEAQ         (R8)(DX*1), R9
	LEAQ         (R9)(DX*1), R10
	LEAQ         (R10)(DX*1), R11
	LEAQ         (R12)(DX*1), R13
	LEAQ         (R13)(DX*1), R14
	LEAQ         (R14)(DX*1), R15
	XORQ         AX, AX       // column

b4:
	LEAQ 4(AX), DX
	CMPQ DX, CX
	JGT  b4tail
	BACKWARD4(LDU, STU)
	ADDQ $4, AX
	JMP  b4

b4tail:
	CMPQ AX, CX
	JGE  b4done
	TAILMASK
	BACKWARD4(LDM, STM)

b4done:
	VZEROUPPER
	RET

// ADDCLEAR adds the source vector into the destination and zeroes it.
#define ADDCLEAR(LD, ST) \
	LD((DI)(AX*8), Y0) \
	LD((SI)(AX*8), Y1) \
	VADDPD Y1, Y0, Y0 \
	ST(Y0, (DI)(AX*8)) \
	ST(Y14, (SI)(AX*8))

// func addClear(dst, src *float64, n int, tab *int64)
//
// dst[i] += src[i]; src[i] = 0 for i < n.
TEXT ·addClear(SB), NOSPLIT, $0-32
	MOVQ   dst+0(FP), DI
	MOVQ   src+8(FP), SI
	MOVQ   n+16(FP), CX
	MOVQ   tab+24(FP), BX
	VXORPD Y14, Y14, Y14
	XORQ   AX, AX

ac:
	LEAQ 4(AX), DX
	CMPQ DX, CX
	JGT  actail
	ADDCLEAR(LDU, STU)
	ADDQ $4, AX
	JMP  ac

actail:
	CMPQ AX, CX
	JGE  acdone
	TAILMASK
	ADDCLEAR(LDM, STM)

acdone:
	VZEROUPPER
	RET

// ADAM updates elements AX..AX+3. The constants sit at R8, each broadcast
// over 4 lanes: 0 scale, 32 weight decay, 64 β1, 96 1−β1, 128 β2, 160 1−β2,
// 192 learning rate, 224 ε, 256 1−β1^t, 288 1−β2^t.
#define ADAM(LD, ST) \
	LD((SI)(AX*8), Y0) \
	LD((DI)(AX*8), Y1) \
	LD((R9)(AX*8), Y3) \
	LD((R10)(AX*8), Y4) \
	VMULPD    (R8), Y0, Y0 \
	VMULPD    32(R8), Y1, Y2 \
	VADDPD    Y2, Y0, Y0 \
	ST(Y14, (SI)(AX*8)) \
	VCMPPD    $0, Y14, Y0, Y5 \
	VCMPPD    $0, Y14, Y3, Y6 \
	VANDPD    Y6, Y5, Y5 \
	VCMPPD    $0, Y14, Y4, Y6 \
	VANDPD    Y6, Y5, Y5 \
	VMULPD    64(R8), Y3, Y6 \
	VMULPD    96(R8), Y0, Y7 \
	VADDPD    Y7, Y6, Y6 \
	VMULPD    128(R8), Y4, Y8 \
	VMULPD    160(R8), Y0, Y9 \
	VMULPD    Y0, Y9, Y9 \
	VADDPD    Y9, Y8, Y8 \
	VDIVPD    256(R8), Y6, Y9 \
	VMULPD    192(R8), Y9, Y9 \
	VDIVPD    288(R8), Y8, Y10 \
	VSQRTPD   Y10, Y10 \
	VADDPD    224(R8), Y10, Y10 \
	VDIVPD    Y10, Y9, Y9 \
	VSUBPD    Y9, Y1, Y9 \
	VBLENDVPD Y5, Y3, Y6, Y6 \
	VBLENDVPD Y5, Y4, Y8, Y8 \
	VBLENDVPD Y5, Y1, Y9, Y9 \
	ST(Y6, (R9)(AX*8)) \
	ST(Y8, (R10)(AX*8)) \
	ST(Y9, (DI)(AX*8))

// func adam(value, grad, m, v *float64, n int, c *[10][4]float64, tab *int64)
//
// Per element: g = grad·scale + wd·value; grad = 0; unless g, m and v are
// all zero, m = β1·m + (1−β1)·g, v = β2·v + ((1−β2)·g)·g and
// value −= (lr·(m/bc1)) / (sqrt(v/bc2) + ε). The skip is a lane mask: every
// lane computes, and a skipped lane keeps its old m, v and value.
TEXT ·adam(SB), NOSPLIT, $0-56
	MOVQ   value+0(FP), DI
	MOVQ   grad+8(FP), SI
	MOVQ   m+16(FP), R9
	MOVQ   v+24(FP), R10
	MOVQ   n+32(FP), CX
	MOVQ   c+40(FP), R8
	MOVQ   tab+48(FP), BX
	VXORPD Y14, Y14, Y14
	XORQ   AX, AX

ad:
	LEAQ 4(AX), DX
	CMPQ DX, CX
	JGT  adtail
	ADAM(LDU, STU)
	ADDQ $4, AX
	JMP  ad

adtail:
	CMPQ AX, CX
	JGE  addone
	TAILMASK
	ADAM(LDM, STM)

addone:
	VZEROUPPER
	RET
