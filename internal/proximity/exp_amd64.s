// AVX2+FMA bodies of expRow and Func.PairRowXY (see exp.go). Both
// expand EXP4, the avxfma path of Go's
// math.Exp ($GOROOT/src/math/exp_amd64.s) op for op, each scalar
// instruction replaced by its packed twin on four float64 lanes, with
// the same constants written as the same literals. Both round to
// nearest under the default MXCSR, and a packed IEEE operation rounds
// each lane as its scalar form does, so every lane the body settles
// carries math.Exp's bits.
//
// Lanes are classified before any arithmetic:
//   -708 <= x <= 709: computed. round(x·log2e) + 1023 lies in [2, 2046],
//     where math.Exp scales by 2^k without its subnormal or overflow
//     branches.
//   x < -746 (-Inf included): +0. round(x·log2e) <= -1076 there, which
//     math.Exp returns as +0. VMAXPD clamps such a lane to -708 first,
//     so the polynomial never sees an infinity or a huge argument.
//   anything else (NaN, [-746, -708), x > 709): the body stops before
//     the group and returns its index; the Go caller hands it to
//     math.Exp.

#include "textflag.h"

// Copied from math/exp_amd64.s.
#define LOG2E 1.4426950408889634073599246810018920 // 1/LN2
#define LN2U 0.69314718055966295651160180568695068359375 // upper half LN2
#define LN2L 0.28235290563031577122588448175013436025525412068e-12 // lower half LN2

// Each constant fills one 32-byte row, four lanes of one value.
#define ROW(off, v) \
	DATA expconst<>+(off)(SB)/8, v; \
	DATA expconst<>+(off+8)(SB)/8, v; \
	DATA expconst<>+(off+16)(SB)/8, v; \
	DATA expconst<>+(off+24)(SB)/8, v

ROW(0x000, $LOG2E)
ROW(0x020, $LN2U)
ROW(0x040, $LN2L)
ROW(0x060, $0.0625)
// The Taylor coefficients, exprodata in math/exp_amd64.s.
ROW(0x080, $2.4801587301587301587e-5)
ROW(0x0a0, $1.9841269841269841270e-4)
ROW(0x0c0, $1.3888888888888888889e-3)
ROW(0x0e0, $8.3333333333333333333e-3)
ROW(0x100, $4.1666666666666666667e-2)
ROW(0x120, $1.6666666666666666667e-1)
ROW(0x140, $0.5)
ROW(0x160, $1.0)
ROW(0x180, $2.0)
// The classification bounds and the exponent bias (int64 lanes).
ROW(0x1a0, $-708.0)
ROW(0x1c0, $709.0)
ROW(0x1e0, $-746.0)
ROW(0x200, $1023)
// +Inf, the squared distance pairRowXYAsm gives a pair past the cutoff.
ROW(0x220, $0x7ff0000000000000)
GLOBL expconst<>(SB), RODATA|NOPTR, $0x240

// EXP4(bail) replaces the four lanes of Y0 by their math.Exp, or jumps
// to bail, leaving Y0 unchanged, when a lane needs math.Exp's other
// branches. It reads the constants in Y10-Y15 and clobbers Y1-Y5.
#define EXP4(bail) \
	VCMPPD       $0x1d, Y10, Y0, Y1;               \ // x >= -708, false for NaN (GE_OQ)
	VCMPPD       $0x12, Y11, Y0, Y2;               \ // x <= 709, false for NaN (LE_OQ)
	VANDPD       Y2, Y1, Y1;                       \ // computed lanes
	VCMPPD       $0x11, Y12, Y0, Y2;               \ // x < -746, false for NaN (LT_OQ)
	VORPD        Y1, Y2, Y2;                       \
	VMOVMSKPD    Y2, DX;                           \
	CMPL         DX, $0xf;                         \
	JNE          bail;                             \
	VMAXPD       Y10, Y0, Y0;                      \ // x < -746 -> -708; the rest unchanged
	VMULPD       Y13, Y0, Y3;                      \ // k = round(x·log2e)
	VCVTPD2DQY   Y3, X4;                           \
	VCVTDQ2PD    X4, Y3;                           \
	VFNMADD231PD Y14, Y3, Y0;                      \ // x -= k·ln2 in two fused steps
	VFNMADD231PD Y15, Y3, Y0;                      \
	VMULPD       expconst<>+0x060(SB), Y0, Y0;     \ // reduce by 16
	VMOVUPD      expconst<>+0x080(SB), Y3;         \ // the Taylor series
	VFMADD213PD  expconst<>+0x0a0(SB), Y0, Y3;     \
	VFMADD213PD  expconst<>+0x0c0(SB), Y0, Y3;     \
	VFMADD213PD  expconst<>+0x0e0(SB), Y0, Y3;     \
	VFMADD213PD  expconst<>+0x100(SB), Y0, Y3;     \
	VFMADD213PD  expconst<>+0x120(SB), Y0, Y3;     \
	VFMADD213PD  expconst<>+0x140(SB), Y0, Y3;     \
	VFMADD213PD  expconst<>+0x160(SB), Y0, Y3;     \
	VMULPD       Y3, Y0, Y0;                       \
	VADDPD       expconst<>+0x180(SB), Y0, Y3;     \ // square back up four times:
	VMULPD       Y3, Y0, Y0;                       \ // x = x·(x+2), the last fused with +1
	VADDPD       expconst<>+0x180(SB), Y0, Y3;     \
	VMULPD       Y3, Y0, Y0;                       \
	VADDPD       expconst<>+0x180(SB), Y0, Y3;     \
	VMULPD       Y3, Y0, Y0;                       \
	VADDPD       expconst<>+0x180(SB), Y0, Y3;     \
	VFMADD213PD  expconst<>+0x160(SB), Y3, Y0;     \
	VPMOVSXDQ    X4, Y5;                           \ // scale by 2^k, built in the exponent field
	VPADDQ       expconst<>+0x200(SB), Y5, Y5;     \
	VPSLLQ       $52, Y5, Y5;                      \
	VMULPD       Y5, Y0, Y0;                       \
	VANDPD       Y1, Y0, Y0                          // zero the x < -746 lanes

// EXPCONSTS loads the constants EXP4 reads.
#define EXPCONSTS \
	VMOVUPD expconst<>+0x000(SB), Y13; \ // log2e
	VMOVUPD expconst<>+0x020(SB), Y14; \ // ln2 upper
	VMOVUPD expconst<>+0x040(SB), Y15; \ // ln2 lower
	VMOVUPD expconst<>+0x1a0(SB), Y10; \ // -708
	VMOVUPD expconst<>+0x1c0(SB), Y11; \ // 709
	VMOVUPD expconst<>+0x1e0(SB), Y12    // -746

// func expRowAsm(dst, src []float64) int
// len(src) is a multiple of 4; len(dst) >= len(src).
TEXT ·expRowAsm(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	EXPCONSTS
	XORQ AX, AX
	JMP  tail

loop:
	VMOVUPD (SI)(AX*8), Y0
	EXP4(done)
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX

tail:
	CMPQ AX, CX
	JLT  loop

done:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// func pairRowXYAsm(px, py float64, xs, ys []float64, cutoff2, negInv2e2 float64, row []float64) int
// len(xs) is a multiple of 4; len(ys) and len(row) are >= len(xs).
//
// Each lane is PairDist2 of geom.Point.Dist2 as Go compiles it: dx and
// dy, two products and a sum, none of them fused. A sum above cutoff2
// becomes +Inf. The exponent is d2·(−inv2e2)·0.5, pairExponent's
// -d2*inv2e2/2 bit for bit: negation and halving are exact.
TEXT ·pairRowXYAsm(SB), NOSPLIT, $0-112
	VBROADCASTSD px+0(FP), Y6
	VBROADCASTSD py+8(FP), Y7
	MOVQ         xs_base+16(FP), SI
	MOVQ         xs_len+24(FP), CX
	MOVQ         ys_base+40(FP), BX
	VBROADCASTSD cutoff2+64(FP), Y8
	VBROADCASTSD negInv2e2+72(FP), Y9
	MOVQ         row_base+80(FP), DI
	EXPCONSTS
	XORQ         AX, AX
	JMP          tail

loop:
	VMOVUPD   (SI)(AX*8), Y0
	VMOVUPD   (BX)(AX*8), Y1
	VSUBPD    Y0, Y6, Y0                   // dx = px - x
	VSUBPD    Y1, Y7, Y1                   // dy = py - y
	VMULPD    Y0, Y0, Y0
	VMULPD    Y1, Y1, Y1
	VADDPD    Y1, Y0, Y0                   // d2
	VCMPPD    $0x1e, Y8, Y0, Y1            // d2 > cutoff2, false for NaN (GT_OQ)
	VBLENDVPD Y1, expconst<>+0x220(SB), Y0, Y0
	VMULPD    Y9, Y0, Y0
	VMULPD    expconst<>+0x140(SB), Y0, Y0 // · 0.5
	EXP4(done)
	VMOVUPD   Y0, (DI)(AX*8)
	ADDQ      $4, AX

tail:
	CMPQ AX, CX
	JLT  loop

done:
	MOVQ AX, ret+104(FP)
	VZEROUPPER
	RET
