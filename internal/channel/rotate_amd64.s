#include "textflag.h"

// One term of the sum for the subcarrier pair at AX: X0 and X1 hold
// h[k] and h[k+1] so far; vec holds the term's vector, pr its phasor's
// real part in both lanes and npi [−pi, pi]. Per subcarrier, with
// v = [vr, vi], the product is v·[pr, pr] + [vi, vr]·[−pi, pi], then it
// is added to the running sum.
#define TERM(vec, pr, npi) \
	MOVUPD  (vec)(AX*1), X2   \
	MOVUPD  16(vec)(AX*1), X4 \
	PSHUFD  $0x4e, X2, X3     \
	PSHUFD  $0x4e, X4, X5     \
	MULPD   pr, X2            \
	MULPD   pr, X4            \
	MULPD   npi, X3           \
	MULPD   npi, X5           \
	ADDPD   X3, X2            \
	ADDPD   X5, X4            \
	ADDPD   X2, X0            \
	ADDPD   X4, X1

// func rotate4SSE2(h, v0, v1, v2, v3 []complex128, p0, p1, p2, p3 complex128)
TEXT ·rotate4SSE2(SB), NOSPLIT, $0-184
	MOVQ h_base+0(FP), DI
	MOVQ h_len+8(FP), CX
	MOVQ v0_base+24(FP), R8
	MOVQ v1_base+48(FP), R9
	MOVQ v2_base+72(FP), R10
	MOVQ v3_base+96(FP), R11

	// X7 flips the sign of the low lane only.
	MOVQ $0x8000000000000000, AX
	MOVQ AX, X7

	MOVSD    p0_real+120(FP), X8
	UNPCKLPD X8, X8
	MOVSD    p0_imag+128(FP), X12
	UNPCKLPD X12, X12
	XORPD    X7, X12
	MOVSD    p1_real+136(FP), X9
	UNPCKLPD X9, X9
	MOVSD    p1_imag+144(FP), X13
	UNPCKLPD X13, X13
	XORPD    X7, X13
	MOVSD    p2_real+152(FP), X10
	UNPCKLPD X10, X10
	MOVSD    p2_imag+160(FP), X14
	UNPCKLPD X14, X14
	XORPD    X7, X14
	MOVSD    p3_real+168(FP), X11
	UNPCKLPD X11, X11
	MOVSD    p3_imag+176(FP), X15
	UNPCKLPD X15, X15
	XORPD    X7, X15

	// CX = bytes in the whole pairs of subcarriers; AX walks them.
	SHRQ $1, CX
	SHLQ $5, CX
	XORQ AX, AX
	TESTQ CX, CX
	JZ   done

loop:
	MOVUPD (DI)(AX*1), X0
	MOVUPD 16(DI)(AX*1), X1
	TERM(R8, X8, X12)
	TERM(R9, X9, X13)
	TERM(R10, X10, X14)
	TERM(R11, X11, X15)
	MOVUPD X0, (DI)(AX*1)
	MOVUPD X1, 16(DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, CX
	JB   loop

done:
	RET
