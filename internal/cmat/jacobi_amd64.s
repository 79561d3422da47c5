#include "textflag.h"

// The constants in ·jacobiLanes, each in both lanes.
#define EPS2 ·jacobiLanes+0(SB)
#define BELOW ·jacobiLanes+16(SB) // 1 - margin
#define ABOVE ·jacobiLanes+32(SB) // 1 + margin
#define MINNORMAL ·jacobiLanes+48(SB)
#define MAXFLOAT ·jacobiLanes+64(SB)
#define EPS ·jacobiLanes+80(SB)
#define ONE ·jacobiLanes+96(SB)
#define TWO ·jacobiLanes+112(SB)
#define SIGN ·jacobiLanes+128(SB)

// CMPPD predicates: dst = dst OP src.
#define LT $1
#define LE $2
#define NEQ $4
#define NLE $6

// KEEP replaces each lane of new that does not rotate (a zero lane of
// the mask X8) by that lane of old, bit for bit.
#define KEEP(new, old) \
	ANDPD  X8, new  \
	MOVAPD X8, X14  \
	ANDNPD old, X14 \
	ORPD   X14, new

// func jacobiSweepPair(w *[16][4]float64, m, n, sweeps int)
//
// DI = w; R8 = bytes per column (m entries of 32 bytes); R9 = bytes in
// all n columns; R10 and R11 = offsets of columns p and q, and AX and DX
// their addresses; CX walks the rows; R12 collects the lanes that
// rotated in this sweep; R13 counts the sweeps left.
TEXT ·jacobiSweepPair(SB), NOSPLIT, $0-32
	MOVQ  w+0(FP), DI
	MOVQ  m+8(FP), R8
	MOVQ  n+16(FP), R9
	MOVQ  sweeps+24(FP), R13
	SHLQ  $5, R8
	IMULQ R8, R9

sweep:
	XORQ R12, R12
	XORQ R10, R10

pcol:
	LEAQ (R10)(R8*1), R11 // q = p + 1
	CMPQ R11, R9
	JAE  swept
	LEAQ (DI)(R10*1), AX

qcol:
	LEAQ (DI)(R11*1), DX

	// Gram entries: X0 = app, X1 = aqq, X2 = gr, X3 = gi.
	XORPD X0, X0
	XORPD X1, X1
	XORPD X2, X2
	XORPD X3, X3
	XORQ  CX, CX

gram:
	MOVUPD (AX)(CX*1), X4   // a
	MOVUPD 16(AX)(CX*1), X5 // b
	MOVUPD (DX)(CX*1), X6   // c
	MOVUPD 16(DX)(CX*1), X7 // d
	MOVAPD X4, X8
	MULPD  X4, X8
	MOVAPD X5, X9
	MULPD  X5, X9
	ADDPD  X9, X8
	ADDPD  X8, X0           // app += a*a + b*b
	MOVAPD X6, X8
	MULPD  X6, X8
	MOVAPD X7, X9
	MULPD  X7, X9
	ADDPD  X9, X8
	ADDPD  X8, X1           // aqq += c*c + d*d
	MOVAPD X4, X8
	MULPD  X6, X8
	MOVAPD X5, X9
	MULPD  X7, X9
	ADDPD  X9, X8
	ADDPD  X8, X2           // gr += a*c + b*d
	MULPD  X7, X4
	MULPD  X6, X5
	SUBPD  X5, X4
	ADDPD  X4, X3           // gi += a*d - b*c
	ADDQ   $32, CX
	CMPQ   CX, R8
	JB     gram

	// X4 = aa = app*aqq, X5 = g2 = gr*gr + gi*gi, X6 = r2 = eps2*aa.
	MOVAPD X0, X4
	MULPD  X1, X4
	MOVAPD X2, X5
	MULPD  X2, X5
	MOVAPD X3, X6
	MULPD  X3, X6
	ADDPD  X6, X5
	MOVUPD EPS2, X6
	MULPD  X4, X6

	// X7 = decided: g2 and r2 both in [minNormal, MaxFloat64].
	MOVUPD MINNORMAL, X7
	CMPPD  X5, X7, LE
	MOVUPD MINNORMAL, X8
	CMPPD  X6, X8, LE
	ANDPD  X8, X7
	MOVUPD MAXFLOAT, X9
	MOVAPD X5, X8
	CMPPD  X9, X8, LE
	ANDPD  X8, X7
	MOVAPD X6, X8
	CMPPD  X9, X8, LE
	ANDPD  X8, X7

	// X8 = decided && g2 < r2*(1-margin): the pair is skipped.
	MOVUPD BELOW, X9
	MULPD  X6, X9
	MOVAPD X5, X8
	CMPPD  X9, X8, LT
	ANDPD  X7, X8

	// X9 = decided && g2 > r2*(1+margin): the pair rotates.
	MOVUPD ABOVE, X9
	MULPD  X6, X9
	CMPPD  X5, X9, LT
	ANDPD  X7, X9

	// X10 = off = big*sqrt(1+small*small), with X12 = big = max(|gr|, |gi|)
	// and small = min(|gr|, |gi|)/big.
	MOVUPD SIGN, X10
	MOVAPD X10, X11
	ANDNPD X2, X11
	ANDNPD X3, X10
	MOVAPD X11, X12
	MAXPD  X10, X12
	MINPD  X11, X10
	DIVPD  X12, X10
	MULPD  X10, X10
	MOVUPD ONE, X13
	ADDPD  X13, X10
	SQRTPD X10, X10
	MULPD  X12, X10

	// The mask X8 = the lanes that rotate: not skipped by the squared
	// test, big != 0, and either rotating by it or !(off <= eps*sqrt(aa)).
	SQRTPD X4, X4
	MOVUPD EPS, X11
	MULPD  X4, X11
	MOVAPD X10, X4
	CMPPD  X11, X4, NLE
	ORPD   X9, X4
	XORPD  X11, X11
	CMPPD  X11, X12, NEQ
	ANDPD  X12, X4
	ANDNPD X4, X8
	MOVMSKPD X8, BX
	TESTQ  BX, BX
	JZ     nextq
	ORQ    BX, R12

	// X4 + i·X6 = phase = (gr + gi*r)/off + i·(gi - gr*r)/off, r = +0.
	XORPD  X11, X11
	MOVAPD X3, X4
	MULPD  X11, X4
	ADDPD  X2, X4
	DIVPD  X10, X4
	MULPD  X11, X2
	MOVAPD X3, X6
	SUBPD  X2, X6
	DIVPD  X10, X6

	// X1 = zeta = (aqq - app)/(2*off).
	SUBPD  X0, X1
	MOVUPD TWO, X7
	MULPD  X10, X7
	DIVPD  X7, X1

	// X5 = t = copysign(1, zeta)/(|zeta| + sqrt(1+zeta*zeta)).
	MOVUPD SIGN, X5
	MOVAPD X5, X7
	ANDPD  X1, X5
	ORPD   X13, X5
	ANDNPD X1, X7
	MULPD  X1, X1
	ADDPD  X13, X1
	SQRTPD X1, X1
	ADDPD  X1, X7
	DIVPD  X7, X5

	// X10 = cs = 1/sqrt(1+t*t), X5 = sn = cs*t.
	MOVAPD X5, X7
	MULPD  X7, X7
	ADDPD  X13, X7
	SQRTPD X7, X7
	MOVAPD X13, X10
	DIVPD  X7, X10
	MULPD  X10, X5

	XORQ CX, CX

rot:
	MOVUPD (AX)(CX*1), X0   // a
	MOVUPD 16(AX)(CX*1), X1 // b
	MOVUPD (DX)(CX*1), X2   // c
	MOVUPD 16(DX)(CX*1), X3 // d

	// X7 + i·X9 = conj(phase)·cq: br = phr*c + phi*d, bi = phr*d - phi*c.
	MOVAPD X4, X7
	MULPD  X2, X7
	MOVAPD X6, X9
	MULPD  X3, X9
	ADDPD  X9, X7
	MOVAPD X4, X9
	MULPD  X3, X9
	MOVAPD X6, X11
	MULPD  X2, X11
	SUBPD  X11, X9

	// Real parts: p = cs*a - sn*br, q = sn*a + cs*br.
	MOVAPD X10, X11
	MULPD  X0, X11
	MOVAPD X5, X12
	MULPD  X7, X12
	SUBPD  X12, X11
	MOVAPD X5, X12
	MULPD  X0, X12
	MOVAPD X10, X13
	MULPD  X7, X13
	ADDPD  X13, X12
	KEEP(X11, X0)
	KEEP(X12, X2)
	MOVUPD X11, (AX)(CX*1)
	MOVUPD X12, (DX)(CX*1)

	// Imaginary parts: p = cs*b - sn*bi, q = sn*b + cs*bi.
	MOVAPD X10, X11
	MULPD  X1, X11
	MOVAPD X5, X12
	MULPD  X9, X12
	SUBPD  X12, X11
	MOVAPD X5, X12
	MULPD  X1, X12
	MOVAPD X10, X13
	MULPD  X9, X13
	ADDPD  X13, X12
	KEEP(X11, X1)
	KEEP(X12, X3)
	MOVUPD X11, 16(AX)(CX*1)
	MOVUPD X12, 16(DX)(CX*1)

	ADDQ $32, CX
	CMPQ CX, R8
	JB   rot

nextq:
	ADDQ R8, R11
	CMPQ R11, R9
	JB   qcol
	ADDQ R8, R10
	JMP  pcol

swept:
	// A lane that rotated nowhere in a sweep changed no part, so sweeping
	// it again repeats the same skips: stop when neither lane rotated.
	TESTQ R12, R12
	JZ    done
	DECQ  R13
	JNZ   sweep

done:
	RET
