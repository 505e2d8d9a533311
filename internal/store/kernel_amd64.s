// AVX2 bodies for the selection kernels (see kernel.go for semantics,
// kernel_amd64.go for dispatch). Both kernels process groups of four
// float64 lanes: two VCMPPD $0x15 (NLT, unordered-quiet) compares —
// !(v < min) and !(max < v), each true for NaN, exactly the scalar
// comparison form — are ANDed into a lane mask, and survivors' int32
// ids are compacted with a 16-entry PSHUFB shuffle table indexed by
// VMOVMSKPD. Stores write a full 16-byte group at dst[k] (lanes past
// the survivors are overwritten by later groups or left past the
// returned k), which is why callers guarantee len(dst) >= len(col) and
// the wrappers route the <4-lane tail through the scalar loop.

#include "textflag.h"

DATA ·selIota32+0x00(SB)/8, $0x0000000100000000 // {0, 1}
DATA ·selIota32+0x08(SB)/8, $0x0000000300000002 // {2, 3}
GLOBL ·selIota32(SB), RODATA|NOPTR, $16

DATA ·selFour32+0x00(SB)/8, $0x0000000400000004
DATA ·selFour32+0x08(SB)/8, $0x0000000400000004
GLOBL ·selFour32(SB), RODATA|NOPTR, $16

// selPermLUT[mask] is the PSHUFB control compacting the set lanes'
// int32 ids to the front; 0x80 bytes zero the rest.
DATA ·selPermLUT+0x00(SB)/8, $0x8080808080808080
DATA ·selPermLUT+0x08(SB)/8, $0x8080808080808080
DATA ·selPermLUT+0x10(SB)/8, $0x8080808003020100
DATA ·selPermLUT+0x18(SB)/8, $0x8080808080808080
DATA ·selPermLUT+0x20(SB)/8, $0x8080808007060504
DATA ·selPermLUT+0x28(SB)/8, $0x8080808080808080
DATA ·selPermLUT+0x30(SB)/8, $0x0706050403020100
DATA ·selPermLUT+0x38(SB)/8, $0x8080808080808080
DATA ·selPermLUT+0x40(SB)/8, $0x808080800b0a0908
DATA ·selPermLUT+0x48(SB)/8, $0x8080808080808080
DATA ·selPermLUT+0x50(SB)/8, $0x0b0a090803020100
DATA ·selPermLUT+0x58(SB)/8, $0x8080808080808080
DATA ·selPermLUT+0x60(SB)/8, $0x0b0a090807060504
DATA ·selPermLUT+0x68(SB)/8, $0x8080808080808080
DATA ·selPermLUT+0x70(SB)/8, $0x0706050403020100
DATA ·selPermLUT+0x78(SB)/8, $0x808080800b0a0908
DATA ·selPermLUT+0x80(SB)/8, $0x808080800f0e0d0c
DATA ·selPermLUT+0x88(SB)/8, $0x8080808080808080
DATA ·selPermLUT+0x90(SB)/8, $0x0f0e0d0c03020100
DATA ·selPermLUT+0x98(SB)/8, $0x8080808080808080
DATA ·selPermLUT+0xa0(SB)/8, $0x0f0e0d0c07060504
DATA ·selPermLUT+0xa8(SB)/8, $0x8080808080808080
DATA ·selPermLUT+0xb0(SB)/8, $0x0706050403020100
DATA ·selPermLUT+0xb8(SB)/8, $0x808080800f0e0d0c
DATA ·selPermLUT+0xc0(SB)/8, $0x0f0e0d0c0b0a0908
DATA ·selPermLUT+0xc8(SB)/8, $0x8080808080808080
DATA ·selPermLUT+0xd0(SB)/8, $0x0b0a090803020100
DATA ·selPermLUT+0xd8(SB)/8, $0x808080800f0e0d0c
DATA ·selPermLUT+0xe0(SB)/8, $0x0b0a090807060504
DATA ·selPermLUT+0xe8(SB)/8, $0x808080800f0e0d0c
DATA ·selPermLUT+0xf0(SB)/8, $0x0706050403020100
DATA ·selPermLUT+0xf8(SB)/8, $0x0f0e0d0c0b0a0908
GLOBL ·selPermLUT(SB), RODATA|NOPTR, $256

// func selRangeAsm(dst []int32, col []float64, lo int32, min, max float64) int
// len(col) is a multiple of 4; len(dst) >= len(col).
TEXT ·selRangeAsm(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ col_base+24(FP), SI
	MOVQ col_len+32(FP), CX
	VBROADCASTSD min+56(FP), Y0
	VBROADCASTSD max+64(FP), Y1
	MOVL lo+48(FP), AX
	MOVD AX, X2
	VPBROADCASTD X2, X2
	VPADDD ·selIota32(SB), X2, X2 // ids = {lo..lo+3}
	VMOVDQU ·selFour32(SB), X3
	LEAQ ·selPermLUT(SB), R12
	XORQ R8, R8                   // k: survivors written
	XORQ R9, R9                   // i: lanes consumed
	JMP  tail

loop:
	VMOVUPD (SI)(R9*8), Y4
	VCMPPD  $0x15, Y0, Y4, Y5 // !(v < min), NaN -> true
	VCMPPD  $0x15, Y4, Y1, Y6 // !(max < v), NaN -> true
	VANDPD  Y6, Y5, Y5
	VMOVMSKPD Y5, R10
	MOVQ    R10, R11
	SHLQ    $4, R11
	VMOVDQU (R12)(R11*1), X7
	VPSHUFB X7, X2, X8
	VMOVDQU X8, (DI)(R8*4)
	POPCNTQ R10, R10
	ADDQ    R10, R8
	VPADDD  X3, X2, X2
	ADDQ    $4, R9

tail:
	CMPQ R9, CX
	JLT  loop
	MOVQ R8, ret+72(FP)
	VZEROUPPER
	RET

// func selGatherAsm(dst []int32, ids []int32, col []float64, min, max float64) int
// len(ids) is a multiple of 4; len(dst) >= len(ids); every id indexes col.
TEXT ·selGatherAsm(SB), NOSPLIT, $0-96
	MOVQ dst_base+0(FP), DI
	MOVQ ids_base+24(FP), BX
	MOVQ ids_len+32(FP), CX
	MOVQ col_base+48(FP), SI
	VBROADCASTSD min+72(FP), Y0
	VBROADCASTSD max+80(FP), Y1
	LEAQ ·selPermLUT(SB), R12
	XORQ R8, R8 // k
	XORQ R9, R9 // i
	JMP  gtail

gloop:
	VMOVDQU    (BX)(R9*4), X2  // 4 int32 ids
	VPMOVSXDQ  X2, Y4          // widen to int64 lanes
	VPCMPEQD   Y5, Y5, Y5      // gather mask: all lanes
	VXORPD     Y6, Y6, Y6
	VGATHERQPD Y5, (SI)(Y4*8), Y6
	VCMPPD     $0x15, Y0, Y6, Y5
	VCMPPD     $0x15, Y6, Y1, Y7
	VANDPD     Y7, Y5, Y5
	VMOVMSKPD  Y5, R10
	MOVQ       R10, R11
	SHLQ       $4, R11
	VMOVDQU    (R12)(R11*1), X7
	VPSHUFB    X7, X2, X8
	VMOVDQU    X8, (DI)(R8*4)
	POPCNTQ    R10, R10
	ADDQ       R10, R8
	ADDQ       $4, R9

gtail:
	CMPQ R9, CX
	JLT  gloop
	MOVQ R8, ret+88(FP)
	VZEROUPPER
	RET

// func selRectGatherAsm(dst []int32, ids []int32, xs, ys []float64, r geom.Rect) int
// len(ids) is a multiple of 4; len(dst) >= len(ids); every id indexes
// xs and ys. Safe when dst aliases ids (in-place refine): the 16-byte
// store at dst[k] only covers ids already consumed, since k <= i.
TEXT ·selRectGatherAsm(SB), NOSPLIT, $0-136
	MOVQ dst_base+0(FP), DI
	MOVQ ids_base+24(FP), BX
	MOVQ ids_len+32(FP), CX
	MOVQ xs_base+48(FP), SI
	MOVQ ys_base+72(FP), DX
	VBROADCASTSD r_MinX+96(FP), Y0
	VBROADCASTSD r_MinY+104(FP), Y1
	VBROADCASTSD r_MaxX+112(FP), Y2
	VBROADCASTSD r_MaxY+120(FP), Y3
	LEAQ ·selPermLUT(SB), R12
	XORQ R8, R8 // k
	XORQ R9, R9 // i
	JMP  rtail

rloop:
	VMOVDQU    (BX)(R9*4), X8  // 4 int32 ids
	VPMOVSXDQ  X8, Y9
	VPCMPEQD   Y10, Y10, Y10
	VXORPD     Y11, Y11, Y11
	VGATHERQPD Y10, (SI)(Y9*8), Y11 // x values
	VPCMPEQD   Y10, Y10, Y10
	VXORPD     Y12, Y12, Y12
	VGATHERQPD Y10, (DX)(Y9*8), Y12 // y values
	VCMPPD     $0x15, Y0, Y11, Y13  // !(x < minX)
	VCMPPD     $0x15, Y11, Y2, Y10  // !(maxX < x)
	VANDPD     Y10, Y13, Y13
	VCMPPD     $0x15, Y1, Y12, Y10  // !(y < minY)
	VANDPD     Y10, Y13, Y13
	VCMPPD     $0x15, Y12, Y3, Y10  // !(maxY < y)
	VANDPD     Y10, Y13, Y13
	VMOVMSKPD  Y13, R10
	MOVQ       R10, R11
	SHLQ       $4, R11
	VMOVDQU    (R12)(R11*1), X7
	VPSHUFB    X7, X8, X8
	VMOVDQU    X8, (DI)(R8*4)
	POPCNTQ    R10, R10
	ADDQ       R10, R8
	ADDQ       $4, R9

rtail:
	CMPQ R9, CX
	JLT  rloop
	MOVQ R8, ret+128(FP)
	VZEROUPPER
	RET
