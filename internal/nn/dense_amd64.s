#include "textflag.h"

// The AVX2 kernels behind dense_amd64.go. In Go's operand order
// VMULPD b, a, dst computes dst = a·b, and when both a and b are NaN the
// result carries a's payload: a is the first source. Each kernel names the
// first source of every multiply and add it issues, matching a plain build
// of the portable loop it replaces. No fused multiply-add appears anywhere.

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func forwardAVX2(y, x, wt, bias []float64, n, in, out int)
//
// Per sample, per block of units: accumulators start from the bias, then
// for i = 0, 1, …, in−1: acc = acc + (w·x[i]) — w first in the multiply, the
// accumulator first in the add, as ForwardBatch's Go loop compiles.
TEXT ·forwardAVX2(SB), NOSPLIT, $0-120
	MOVQ y_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ wt_base+48(FP), R8
	MOVQ bias_base+72(FP), R9
	MOVQ in+104(FP), R10
	SHLQ $3, R10               // x row stride, bytes
	MOVQ out+112(FP), R11
	MOVQ R11, R13
	ANDQ $-4, R13
	SHLQ $3, R13               // wt row stride = the units computed, bytes
	SHLQ $3, R11               // y row stride, bytes
	MOVQ n+96(FP), CX
	IMULQ R10, CX
	ADDQ SI, CX                // end of x

sample:
	LEAQ (SI)(R10*1), R12      // end of this sample's x row
	XORQ AX, AX                // unit offset, bytes

block16:
	LEAQ 128(AX), BX
	CMPQ BX, R13
	JGT  block8
	VMOVUPD 0(R9)(AX*1), Y0
	VMOVUPD 32(R9)(AX*1), Y1
	VMOVUPD 64(R9)(AX*1), Y2
	VMOVUPD 96(R9)(AX*1), Y3
	LEAQ (R8)(AX*1), DX
	MOVQ SI, BX

loop16:
	VBROADCASTSD (BX), Y4
	VMOVUPD 0(DX), Y5
	VMULPD  Y4, Y5, Y5
	VADDPD  Y5, Y0, Y0
	VMOVUPD 32(DX), Y6
	VMULPD  Y4, Y6, Y6
	VADDPD  Y6, Y1, Y1
	VMOVUPD 64(DX), Y7
	VMULPD  Y4, Y7, Y7
	VADDPD  Y7, Y2, Y2
	VMOVUPD 96(DX), Y8
	VMULPD  Y4, Y8, Y8
	VADDPD  Y8, Y3, Y3
	ADDQ    $8, BX
	ADDQ    R13, DX
	CMPQ    BX, R12
	JNE     loop16
	VMOVUPD Y0, 0(DI)(AX*1)
	VMOVUPD Y1, 32(DI)(AX*1)
	VMOVUPD Y2, 64(DI)(AX*1)
	VMOVUPD Y3, 96(DI)(AX*1)
	ADDQ    $128, AX
	JMP     block16

block8:
	LEAQ 64(AX), BX
	CMPQ BX, R13
	JGT  block4
	VMOVUPD 0(R9)(AX*1), Y0
	VMOVUPD 32(R9)(AX*1), Y1
	LEAQ (R8)(AX*1), DX
	MOVQ SI, BX

loop8:
	VBROADCASTSD (BX), Y4
	VMOVUPD 0(DX), Y5
	VMULPD  Y4, Y5, Y5
	VADDPD  Y5, Y0, Y0
	VMOVUPD 32(DX), Y6
	VMULPD  Y4, Y6, Y6
	VADDPD  Y6, Y1, Y1
	ADDQ    $8, BX
	ADDQ    R13, DX
	CMPQ    BX, R12
	JNE     loop8
	VMOVUPD Y0, 0(DI)(AX*1)
	VMOVUPD Y1, 32(DI)(AX*1)
	ADDQ    $64, AX

block4:
	CMPQ AX, R13
	JGE  nextsample
	VMOVUPD 0(R9)(AX*1), Y0
	LEAQ (R8)(AX*1), DX
	MOVQ SI, BX

loop4:
	VBROADCASTSD (BX), Y4
	VMOVUPD 0(DX), Y5
	VMULPD  Y4, Y5, Y5
	VADDPD  Y5, Y0, Y0
	ADDQ    $8, BX
	ADDQ    R13, DX
	CMPQ    BX, R12
	JNE     loop4
	VMOVUPD Y0, 0(DI)(AX*1)

nextsample:
	ADDQ R11, DI
	MOVQ R12, SI
	CMPQ SI, CX
	JNE  sample
	VZEROUPPER
	RET

// func backwardAVX2(delta, x, w, gw, gb, dx []float64, surv []int, in, out, lo, cols int)
//
// backwardBatch's walk: per sample, the units whose δ is not ±0 (NaN
// survives, as in the Go test d != 0), two at a time in ascending order.
// Bias gradients take the accumulator first; every row update takes the
// row element (x or w) first in its multiply and the product first in its
// add, except the first unit of a pair's weight-gradient row, whose multiply
// takes δ first — the operand orders of the portable loops.
//
// A sample's survivors are first listed in surv without a branch (each unit
// writes its index, the write pointer advances only past a survivor), so
// the walk does not mispredict on the δ pattern. Row loops run a negative
// byte offset AX up to zero against the row's end pointer: four elements
// while at least four remain, then one at a time.
TEXT ·backwardAVX2(SB), NOSPLIT, $32-200
	MOVQ delta_base+0(FP), SI
	MOVQ delta_len+8(FP), AX
	LEAQ (SI)(AX*8), AX
	MOVQ AX, deltaEnd-8(SP)
	MOVQ gw_len+80(FP), AX
	MOVQ AX, params-16(SP)     // nonzero: accumulate GW and GB
	MOVQ out+176(FP), AX
	MOVQ AX, out-24(SP)
	MOVQ in+168(FP), R12
	SHLQ $3, R12               // x and W row length, bytes
	MOVQ cols+192(FP), CX
	SHLQ $3, CX                // dx row length, bytes
	MOVQ x_base+24(FP), BX
	ADDQ R12, BX               // end of this sample's x row
	MOVQ dx_base+120(FP), DI
	ADDQ CX, DI                // end of this sample's dx row
	MOVQ lo+184(FP), AX
	MOVQ w_base+48(FP), R8
	LEAQ (R8)(AX*8), R8
	ADDQ CX, R8                // end of W row 0's columns [lo, lo+cols)
	MOVQ gw_base+72(FP), R9
	ADDQ R12, R9               // end of GW row 0
	MOVQ gb_base+96(FP), R10

sample:
	MOVQ surv_base+144(FP), R13
	XORQ R11, R11

list:
	MOVQ  R11, (R13)
	MOVQ  (SI)(R11*8), AX
	XORL  DX, DX
	SHLQ  $1, AX               // drop the sign: ±0 → 0
	SETNE DL
	LEAQ  (R13)(DX*8), R13
	INCQ  R11
	CMPQ  R11, out-24(SP)
	JLT   list
	MOVQ  R13, survEnd-32(SP)
	MOVQ  surv_base+144(FP), R13

nextpair:
	LEAQ 16(R13), AX
	CMPQ AX, survEnd-32(SP)
	JGT  last
	MOVQ 0(R13), R15           // o0
	MOVQ 8(R13), R11           // o1
	VBROADCASTSD (SI)(R15*8), Y0
	JMP  pair

last:
	CMPQ R13, survEnd-32(SP)
	JGE  nextsample
	MOVQ 0(R13), R15
	VBROADCASTSD (SI)(R15*8), Y0

odd:
	CMPQ params-16(SP), $0
	JEQ  oddinput
	VMOVSD (R10)(R15*8), X2
	VADDSD X0, X2, X2
	VMOVSD X2, (R10)(R15*8)
	MOVQ   R15, DX
	IMULQ  R12, DX
	ADDQ   R9, DX              // end of GW row o0
	MOVQ   R12, AX
	NEGQ   AX

oddgvec:                           // g = x·δ0 + g
	ADDQ    $32, AX
	JG      oddgtail
	VMOVUPD -32(BX)(AX*1), Y2
	VMULPD  Y0, Y2, Y2
	VADDPD  -32(DX)(AX*1), Y2, Y2
	VMOVUPD Y2, -32(DX)(AX*1)
	JMP     oddgvec

oddgtail:
	SUBQ $32, AX

oddgscalar:
	TESTQ  AX, AX
	JZ     oddinput
	VMOVSD (BX)(AX*1), X2
	VMULSD X0, X2, X2
	VADDSD (DX)(AX*1), X2, X2
	VMOVSD X2, (DX)(AX*1)
	ADDQ   $8, AX
	JMP    oddgscalar

oddinput:
	TESTQ CX, CX
	JZ    nextsample
	MOVQ  R15, DX
	IMULQ R12, DX
	ADDQ  R8, DX               // end of W row o0's columns
	MOVQ  CX, AX
	NEGQ  AX

odddvec:                           // dx = w0·δ0 + dx
	ADDQ    $32, AX
	JG      odddtail
	VMOVUPD -32(DX)(AX*1), Y2
	VMULPD  Y0, Y2, Y2
	VADDPD  -32(DI)(AX*1), Y2, Y2
	VMOVUPD Y2, -32(DI)(AX*1)
	JMP     odddvec

odddtail:
	SUBQ $32, AX

odddscalar:
	TESTQ  AX, AX
	JZ     nextsample
	VMOVSD (DX)(AX*1), X2
	VMULSD X0, X2, X2
	VADDSD (DI)(AX*1), X2, X2
	VMOVSD X2, (DI)(AX*1)
	ADDQ   $8, AX
	JMP    odddscalar

pair:
	VBROADCASTSD (SI)(R11*8), Y1
	CMPQ params-16(SP), $0
	JEQ  pairinput
	VMOVSD (R10)(R15*8), X2
	VADDSD X0, X2, X2
	VMOVSD X2, (R10)(R15*8)
	VMOVSD (R10)(R11*8), X2
	VADDSD X1, X2, X2
	VMOVSD X2, (R10)(R11*8)
	MOVQ   R15, DX
	IMULQ  R12, DX
	ADDQ   R9, DX              // end of GW row o0
	MOVQ   R11, R14
	IMULQ  R12, R14
	ADDQ   R9, R14             // end of GW row o1
	MOVQ   R12, AX
	NEGQ   AX

pairgvec:                          // g0 = δ0·x + g0; g1 = x·δ1 + g1
	ADDQ    $32, AX
	JG      pairgtail
	VMOVUPD -32(BX)(AX*1), Y2
	VMULPD  Y2, Y0, Y3
	VADDPD  -32(DX)(AX*1), Y3, Y3
	VMOVUPD Y3, -32(DX)(AX*1)
	VMULPD  Y1, Y2, Y4
	VADDPD  -32(R14)(AX*1), Y4, Y4
	VMOVUPD Y4, -32(R14)(AX*1)
	JMP     pairgvec

pairgtail:
	SUBQ $32, AX

pairgscalar:
	TESTQ  AX, AX
	JZ     pairinput
	VMOVSD (BX)(AX*1), X2
	VMULSD X2, X0, X3
	VADDSD (DX)(AX*1), X3, X3
	VMOVSD X3, (DX)(AX*1)
	VMULSD X1, X2, X4
	VADDSD (R14)(AX*1), X4, X4
	VMOVSD X4, (R14)(AX*1)
	ADDQ   $8, AX
	JMP    pairgscalar

pairinput:
	TESTQ CX, CX
	JZ    pairdone
	MOVQ  R15, DX
	IMULQ R12, DX
	ADDQ  R8, DX               // end of W row o0's columns
	MOVQ  R11, R14
	IMULQ R12, R14
	ADDQ  R8, R14              // end of W row o1's columns
	MOVQ  CX, AX
	NEGQ  AX

pairdvec:                          // t = w0·δ0 + dx; dx = w1·δ1 + t
	ADDQ    $32, AX
	JG      pairdtail
	VMOVUPD -32(DX)(AX*1), Y2
	VMULPD  Y0, Y2, Y2
	VADDPD  -32(DI)(AX*1), Y2, Y2
	VMOVUPD -32(R14)(AX*1), Y3
	VMULPD  Y1, Y3, Y3
	VADDPD  Y2, Y3, Y3
	VMOVUPD Y3, -32(DI)(AX*1)
	JMP     pairdvec

pairdtail:
	SUBQ $32, AX

pairdscalar:
	TESTQ  AX, AX
	JZ     pairdone
	VMOVSD (DX)(AX*1), X2
	VMULSD X0, X2, X2
	VADDSD (DI)(AX*1), X2, X2
	VMOVSD (R14)(AX*1), X3
	VMULSD X1, X3, X3
	VADDSD X2, X3, X3
	VMOVSD X3, (DI)(AX*1)
	ADDQ   $8, AX
	JMP    pairdscalar

pairdone:
	ADDQ $16, R13
	JMP  nextpair

nextsample:
	MOVQ out-24(SP), AX
	LEAQ (SI)(AX*8), SI
	ADDQ R12, BX
	ADDQ CX, DI
	CMPQ SI, deltaEnd-8(SP)
	JNE  sample
	VZEROUPPER
	RET
