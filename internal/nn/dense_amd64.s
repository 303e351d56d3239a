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

// TRANSPOSE4 turns four rows in Y0..Y3 (four elements each) into four
// columns in Y0..Y3, through Y4..Y7. Shuffles only: every element keeps its
// bits.
#define TRANSPOSE4 \
	VUNPCKLPD  Y1, Y0, Y4; \
	VUNPCKHPD  Y1, Y0, Y5; \
	VUNPCKLPD  Y3, Y2, Y6; \
	VUNPCKHPD  Y3, Y2, Y7; \
	VPERM2F128 $0x20, Y6, Y4, Y0; \
	VPERM2F128 $0x20, Y7, Y5, Y1; \
	VPERM2F128 $0x31, Y6, Y4, Y2; \
	VPERM2F128 $0x31, Y7, Y5, Y3

// RELU zeroes the lanes of acc that are < 0 when Y14 is all ones (a ReLU
// layer) and leaves acc alone when Y14 is zero; Y15 holds +0. The compare
// is ordered, so NaN and −0 lanes stay as they are, as in applyAll, and a
// zeroed lane is +0.
#define RELU(acc) \
	VCMPPD  $0x11, Y15, acc, Y9; \
	VANDPD  Y14, Y9, Y9; \
	VANDNPD acc, Y9, acc

// RELUSETUP loads RELU's registers from a 0-or-1 flag in AX.
#define RELUSETUP \
	NEGQ         AX; \
	VMOVQ        AX, X14; \
	VPBROADCASTQ X14, Y14; \
	VXORPD       Y15, Y15, Y15

// func transposeAVX2(dst, src []float64, rows, cols int)
//
// dst[i·rows+o] = src[o·cols+i] for o < rows, a multiple of 4, and i < cols:
// 4×4 blocks through TRANSPOSE4, then the cols%4 last columns four rows at
// a time.
TEXT ·transposeAVX2(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ rows+48(FP), R8
	MOVQ R8, CX
	SHRQ $2, CX                // row blocks
	SHLQ $3, R8                // dst row stride, bytes
	MOVQ cols+56(FP), R9
	SHLQ $3, R9                // src row stride, bytes

rowblock:
	LEAQ (SI)(R9*1), DX        // src rows o+1, o+2, o+3
	LEAQ (DX)(R9*1), R10
	LEAQ (R10)(R9*1), R11
	MOVQ DI, R12               // dst row i, column o
	XORQ BX, BX                // src column offset, bytes

colblock:
	LEAQ 32(BX), AX
	CMPQ AX, R9
	JGT  coltail
	VMOVUPD (SI)(BX*1), Y0
	VMOVUPD (DX)(BX*1), Y1
	VMOVUPD (R10)(BX*1), Y2
	VMOVUPD (R11)(BX*1), Y3
	TRANSPOSE4
	VMOVUPD Y0, (R12)
	VMOVUPD Y1, (R12)(R8*1)
	LEAQ    (R12)(R8*2), R13
	VMOVUPD Y2, (R13)
	VMOVUPD Y3, (R13)(R8*1)
	LEAQ    (R12)(R8*4), R12
	MOVQ    AX, BX
	JMP     colblock

coltail:
	CMPQ        BX, R9
	JGE         nextrows
	VMOVSD      (SI)(BX*1), X0
	VMOVHPD     (DX)(BX*1), X0, X0
	VMOVSD      (R10)(BX*1), X1
	VMOVHPD     (R11)(BX*1), X1, X1
	VINSERTF128 $1, X1, Y0, Y0
	VMOVUPD     Y0, (R12)
	ADDQ        R8, R12
	ADDQ        $8, BX
	JMP         coltail

nextrows:
	LEAQ (SI)(R9*4), SI
	ADDQ $32, DI
	DECQ CX
	JNZ  rowblock
	VZEROUPPER
	RET

// func forwardAVX2(y, x, wt, bias []float64, n, in, out, relu int)
//
// Per sample, per block of units: accumulators start from the bias, then
// for i = 0, 1, …, in−1: acc = acc + (w·x[i]) — w first in the multiply, the
// accumulator first in the add, as ForwardBatch's Go loop compiles. With
// relu = 1 each accumulator goes through RELU before it is stored.
TEXT ·forwardAVX2(SB), NOSPLIT, $0-128
	MOVQ relu+120(FP), AX
	RELUSETUP
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
	RELU(Y0)
	RELU(Y1)
	RELU(Y2)
	RELU(Y3)
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
	RELU(Y0)
	RELU(Y1)
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
	RELU(Y0)
	VMOVUPD Y0, 0(DI)(AX*1)

nextsample:
	ADDQ R11, DI
	MOVQ R12, SI
	CMPQ SI, CX
	JNE  sample
	VZEROUPPER
	RET

// NARROWMAC adds one input column to the accumulator Y10: col holds x[i]
// of four samples, and W row o's x[i] weight sits at disp(R9)(BX*1).
// acc = acc + (w·x[i]) per lane, in the operand order of forwardAVX2.
#define NARROWMAC(col, disp) \
	VBROADCASTSD disp(R9)(BX*1), Y8; \
	VMULPD       col, Y8, Y8; \
	VADDPD       Y8, Y10, Y10

// func narrowAVX2(y, x, w, bias []float64, n, in, out, lo, relu int)
//
// The units [lo, out) of the first n samples, n a multiple of 4, four
// samples per register: per block of four samples and per unit, one
// accumulator of four lanes starts from the unit's bias and adds w·x[i] for
// i = 0, 1, …, in−1, each lane the Go loop's chain for its sample. Four
// columns of x come from four row loads and TRANSPOSE4, the in%4 last ones
// from four scalar loads. The four lanes are stored to their rows after
// RELU.
TEXT ·narrowAVX2(SB), NOSPLIT, $0-136
	MOVQ relu+128(FP), AX
	RELUSETUP
	MOVQ y_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ in+104(FP), R10
	SHLQ $3, R10               // x and W row stride, bytes
	MOVQ out+112(FP), R12      // the units' end
	MOVQ R12, R11
	SHLQ $3, R11               // y row stride, bytes
	MOVQ n+96(FP), CX
	IMULQ R10, CX
	ADDQ SI, CX                // end of x's n rows

block:
	LEAQ (SI)(R10*1), DX       // x rows b+1, b+2, b+3
	LEAQ (DX)(R10*1), R14
	LEAQ (R14)(R10*1), R15
	MOVQ lo+120(FP), R13       // unit

unit:
	MOVQ         bias_base+72(FP), AX
	VBROADCASTSD (AX)(R13*8), Y10
	MOVQ         R13, R9
	IMULQ        R10, R9
	ADDQ         w_base+48(FP), R9 // W row o
	XORQ         BX, BX            // column offset, bytes

cols4:
	LEAQ 32(BX), AX
	CMPQ AX, R10
	JGT  coltail
	VMOVUPD (SI)(BX*1), Y0
	VMOVUPD (DX)(BX*1), Y1
	VMOVUPD (R14)(BX*1), Y2
	VMOVUPD (R15)(BX*1), Y3
	TRANSPOSE4
	NARROWMAC(Y0, 0)
	NARROWMAC(Y1, 8)
	NARROWMAC(Y2, 16)
	NARROWMAC(Y3, 24)
	MOVQ AX, BX
	JMP  cols4

coltail:
	CMPQ        BX, R10
	JGE         store
	VMOVSD      (SI)(BX*1), X0
	VMOVHPD     (DX)(BX*1), X0, X0
	VMOVSD      (R14)(BX*1), X1
	VMOVHPD     (R15)(BX*1), X1, X1
	VINSERTF128 $1, X1, Y0, Y0
	NARROWMAC(Y0, 0)
	ADDQ        $8, BX
	JMP         coltail

store:
	RELU(Y10)
	LEAQ         (DI)(R13*8), AX
	VMOVSD       X10, (AX)
	VMOVHPD      X10, (AX)(R11*1)
	VEXTRACTF128 $1, Y10, X9
	LEAQ         (AX)(R11*2), AX
	VMOVSD       X9, (AX)
	VMOVHPD      X9, (AX)(R11*1)
	INCQ         R13
	CMPQ         R13, R12
	JLT          unit
	LEAQ         (SI)(R10*4), SI
	LEAQ         (DI)(R11*4), DI
	CMPQ         SI, CX
	JNE          block
	VZEROUPPER
	RET

// RECORD stores unit R11's δ, in X2, into the δ row at R15 and appends R11
// to the survivor list at R13, advancing R13 past it only when δ is not ±0
// (NaN survives, as in the Go test d != 0), without a branch.
#define RECORD \
	VMOVSD X2, (R15)(R11*8); \
	MOVQ   R11, (R13); \
	VMOVQ  X2, AX; \
	XORL   DX, DX; \
	SHLQ   $1, AX; \
	SETNE  DL; \
	LEAQ   (R13)(DX*8), R13; \
	INCQ   R11

// LANE appends unit R11+k to the survivor list at R13, advancing R13 only
// when bit k of the survivor mask in AX is set.
#define LANE(k) \
	LEAQ k(R11), DX; \
	MOVQ DX, (R13); \
	MOVQ AX, DX; \
	SHRQ $k, DX; \
	ANDQ $1, DX; \
	LEAQ (R13)(DX*8), R13

// func backwardAVX2(dy, y, x, w, gw, gb, dx []float64, surv []int, in, out, lo, cols, act int)
//
// backwardBatch's walk: per sample, δ = dy·σ′(y) for every unit by the
// activation act (Identity, ReLU or Sigmoid), then the units whose δ is
// not ±0, two at a time in ascending order. σ′ is Activation.DerivFromOutput:
// 1 for Identity; for ReLU 1 or +0, built from an ordered y > 0 compare and
// multiplied in (never a select of dy, so ±Inf·0 stays NaN); y·(1−y) for
// Sigmoid. dy is the first source of δ's multiply.
// Bias gradients take the accumulator first; every row update takes the
// row element (x or w) first in its multiply and the product first in its
// add, except the first unit of a pair's weight-gradient row, whose multiply
// takes δ first — the operand orders of the portable loops.
//
// surv holds 2·out words: the sample's δ row, then its list of survivors,
// written without a branch (RECORD, LANE) so the walk does not mispredict on
// the δ pattern. A ReLU layer's δ is computed four units at a time. Row
// loops run a negative byte offset AX up to zero against the row's end
// pointer: four elements while at least four remain, then one at a time.
TEXT ·backwardAVX2(SB), NOSPLIT, $56-232
	MOVQ dy_base+0(FP), SI
	MOVQ dy_len+8(FP), AX
	LEAQ (SI)(AX*8), AX
	MOVQ AX, dyEnd-8(SP)
	MOVQ y_base+24(FP), AX
	SUBQ SI, AX
	MOVQ AX, yOff-40(SP)       // y's row minus dy's, bytes
	MOVQ act+224(FP), AX
	MOVQ AX, act-48(SP)
	MOVQ gw_len+104(FP), AX
	MOVQ AX, params-16(SP)     // nonzero: accumulate GW and GB
	MOVQ out+200(FP), AX
	MOVQ AX, out-24(SP)
	MOVQ surv_base+168(FP), DX
	LEAQ (DX)(AX*8), DX
	MOVQ DX, list-56(SP)       // the survivor list, after the δ row
	MOVQ in+192(FP), R12
	SHLQ $3, R12               // x and W row length, bytes
	MOVQ cols+216(FP), CX
	SHLQ $3, CX                // dx row length, bytes
	MOVQ x_base+48(FP), BX
	ADDQ R12, BX               // end of this sample's x row
	MOVQ dx_base+144(FP), DI
	ADDQ CX, DI                // end of this sample's dx row
	MOVQ lo+208(FP), AX
	MOVQ w_base+72(FP), R8
	LEAQ (R8)(AX*8), R8
	ADDQ CX, R8                // end of W row 0's columns [lo, lo+cols)
	MOVQ gw_base+96(FP), R9
	ADDQ R12, R9               // end of GW row 0
	MOVQ gb_base+120(FP), R10

sample:
	MOVQ         surv_base+168(FP), R15 // δ row
	MOVQ         list-56(SP), R13
	MOVQ         yOff-40(SP), R14
	ADDQ         SI, R14                // this sample's y row
	XORQ         R11, R11
	MOVQ         $0x3ff0000000000000, AX
	VMOVQ        AX, X3
	VPBROADCASTQ X3, Y3                 // 1
	VXORPD       Y4, Y4, Y4             // +0
	MOVQ   act-48(SP), AX
	CMPQ   AX, $1
	JEQ    listrelu
	CMPQ   AX, $2
	JEQ    listsigmoid

listidentity:
	VMOVSD (SI)(R11*8), X2
	VMULSD X3, X2, X2          // dy·1
	RECORD
	CMPQ   R11, out-24(SP)
	JLT    listidentity
	JMP    listed

listrelu:
	LEAQ      4(R11), AX
	CMPQ      AX, out-24(SP)
	JGT       listrelutail
	VMOVUPD   (R14)(R11*8), Y5
	VCMPPD    $0x1e, Y4, Y5, Y5 // y > 0, ordered: NaN is not
	VANDPD    Y3, Y5, Y5        // 1 or +0
	VMOVUPD   (SI)(R11*8), Y2
	VMULPD    Y5, Y2, Y2        // dy·σ′
	VMOVUPD   Y2, (R15)(R11*8)
	VCMPPD    $0x04, Y4, Y2, Y6 // δ ≠ 0, unordered: NaN survives
	VMOVMSKPD Y6, AX
	LANE(0)
	LANE(1)
	LANE(2)
	LANE(3)
	ADDQ      $4, R11
	JMP       listrelu

listrelutail:
	CMPQ   R11, out-24(SP)
	JGE    listed
	VMOVSD (R14)(R11*8), X5
	VCMPSD $0x1e, X4, X5, X5
	VANDPD X3, X5, X5
	VMOVSD (SI)(R11*8), X2
	VMULSD X5, X2, X2
	RECORD
	JMP    listrelutail

listsigmoid:
	VMOVSD (R14)(R11*8), X5
	VSUBSD X5, X3, X6          // 1 − y
	VMULSD X6, X5, X5          // y·(1 − y)
	VMOVSD (SI)(R11*8), X2
	VMULSD X5, X2, X2
	RECORD
	CMPQ   R11, out-24(SP)
	JLT    listsigmoid

listed:
	MOVQ R13, survEnd-32(SP)
	MOVQ list-56(SP), R13

nextpair:
	LEAQ 16(R13), AX
	CMPQ AX, survEnd-32(SP)
	JGT  last
	MOVQ 0(R13), R15           // o0
	MOVQ 8(R13), R11           // o1
	MOVQ surv_base+168(FP), AX // δ row
	VBROADCASTSD (AX)(R15*8), Y0
	JMP  pair

last:
	CMPQ R13, survEnd-32(SP)
	JGE  nextsample
	MOVQ 0(R13), R15
	MOVQ surv_base+168(FP), AX
	VBROADCASTSD (AX)(R15*8), Y0

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
	VBROADCASTSD (AX)(R11*8), Y1
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
	CMPQ SI, dyEnd-8(SP)
	JNE  sample
	VZEROUPPER
	RET

// func adamAVX2(w, g, m, v []float64, k *[8]float64)
//
// Adam.apply over len(w) elements, k = {β1, 1−β1, β2, 1−β2, c1, c2, lr, ε},
// four lanes at a time and then one: m = (1−β1)·g + m·β1;
// v = g·((1−β2)·g) + v·β2; w = w − (m/c1·lr) / (sqrt(v/c2) + ε), each
// operation with the first source the portable loop compiles to.
TEXT ·adamAVX2(SB), NOSPLIT, $0-104
	MOVQ w_base+0(FP), DI
	MOVQ w_len+8(FP), CX
	MOVQ g_base+24(FP), SI
	MOVQ m_base+48(FP), R8
	MOVQ v_base+72(FP), R9
	MOVQ k+96(FP), AX
	VBROADCASTSD 0(AX), Y8     // β1
	VBROADCASTSD 8(AX), Y9     // 1−β1
	VBROADCASTSD 16(AX), Y10   // β2
	VBROADCASTSD 24(AX), Y11   // 1−β2
	VBROADCASTSD 32(AX), Y12   // c1
	VBROADCASTSD 40(AX), Y13   // c2
	VBROADCASTSD 48(AX), Y14   // lr
	VBROADCASTSD 56(AX), Y15   // ε
	XORQ BX, BX

adamvec:
	LEAQ    4(BX), AX
	CMPQ    AX, CX
	JGT     adamtail
	VMOVUPD (SI)(BX*8), Y0     // g
	VMOVUPD (R8)(BX*8), Y1
	VMULPD  Y8, Y1, Y1         // m·β1
	VMULPD  Y0, Y9, Y2         // (1−β1)·g
	VADDPD  Y1, Y2, Y2         // m
	VMOVUPD Y2, (R8)(BX*8)
	VMOVUPD (R9)(BX*8), Y3
	VMULPD  Y10, Y3, Y3        // v·β2
	VMULPD  Y0, Y11, Y4        // (1−β2)·g
	VMULPD  Y4, Y0, Y4         // g·((1−β2)·g)
	VADDPD  Y3, Y4, Y4         // v
	VMOVUPD Y4, (R9)(BX*8)
	VDIVPD  Y12, Y2, Y2        // mh = m/c1
	VDIVPD  Y13, Y4, Y4        // vh = v/c2
	VMULPD  Y14, Y2, Y2        // mh·lr
	VSQRTPD Y4, Y4
	VADDPD  Y15, Y4, Y4        // sqrt(vh) + ε
	VDIVPD  Y4, Y2, Y2
	VMOVUPD (DI)(BX*8), Y5
	VSUBPD  Y2, Y5, Y5
	VMOVUPD Y5, (DI)(BX*8)
	MOVQ    AX, BX
	JMP     adamvec

adamtail:
	CMPQ    BX, CX
	JGE     adamdone
	VMOVSD  (SI)(BX*8), X0
	VMOVSD  (R8)(BX*8), X1
	VMULSD  X8, X1, X1
	VMULSD  X0, X9, X2
	VADDSD  X1, X2, X2
	VMOVSD  X2, (R8)(BX*8)
	VMOVSD  (R9)(BX*8), X3
	VMULSD  X10, X3, X3
	VMULSD  X0, X11, X4
	VMULSD  X4, X0, X4
	VADDSD  X3, X4, X4
	VMOVSD  X4, (R9)(BX*8)
	VDIVSD  X12, X2, X2
	VDIVSD  X13, X4, X4
	VMULSD  X14, X2, X2
	VSQRTSD X4, X4, X4
	VADDSD  X15, X4, X4
	VDIVSD  X4, X2, X2
	VMOVSD  (DI)(BX*8), X5
	VSUBSD  X2, X5, X5
	VMOVSD  X5, (DI)(BX*8)
	INCQ    BX
	JMP     adamtail

adamdone:
	VZEROUPPER
	RET

// func blendAVX2(dst, src []float64, tau, keep float64)
//
// Dense.SoftUpdateFrom's θ = τ·θ_src + (1−τ)·θ over len(dst) elements, keep
// = 1−τ: dst = keep·dst + src·τ, in the portable loop's operand order.
TEXT ·blendAVX2(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	VBROADCASTSD tau+48(FP), Y8
	VBROADCASTSD keep+56(FP), Y9
	XORQ BX, BX

blendvec:
	LEAQ    4(BX), AX
	CMPQ    AX, CX
	JGT     blendtail
	VMOVUPD (SI)(BX*8), Y0
	VMULPD  Y8, Y0, Y0         // θ_src·τ
	VMOVUPD (DI)(BX*8), Y1
	VMULPD  Y1, Y9, Y1         // (1−τ)·θ
	VADDPD  Y0, Y1, Y1
	VMOVUPD Y1, (DI)(BX*8)
	MOVQ    AX, BX
	JMP     blendvec

blendtail:
	CMPQ   BX, CX
	JGE    blenddone
	VMOVSD (SI)(BX*8), X0
	VMULSD X8, X0, X0
	VMOVSD (DI)(BX*8), X1
	VMULSD X1, X9, X1
	VADDSD X0, X1, X1
	VMOVSD X1, (DI)(BX*8)
	INCQ   BX
	JMP    blendtail

blenddone:
	VZEROUPPER
	RET
