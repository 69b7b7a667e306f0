// AVX2+FMA and AVX-512 distance kernels. The one-pair kernel, dotAVX2,
// handles any vector length: a 32-element FMA main loop over four
// accumulator registers (hiding FMA latency, mirroring the scalar kernels'
// unrolls), an 8-element loop, a horizontal reduction, and a scalar-FMA
// tail. The gathers — dotGatherAVX2 over a flat arena, dotMaskAVX512 and
// dotMaskAVX2 over bitmask rows — sum every row in exactly that order, so
// each distance the program keeps has dotAVX2's bits; the threshold kernels
// (maskAtLeast32AVX2/AVX512) are a filter with an order of their own. Loads
// are unaligned (VMOVUPS) — arena rows have no alignment guarantee.
//
// Note on operand order: Go assembly reverses Intel syntax, so
// VFMADD231PS src3, src2, dst computes dst += src2*src3.
//
// dotAVX2's callers guarantee len(a) == len(b); only a's length is read.

#include "textflag.h"

// func dotAVX2(a, b []float32) float32
TEXT ·dotAVX2(SB), NOSPLIT, $0-52
	MOVQ a_base+0(FP), SI
	MOVQ b_base+24(FP), DI
	MOVQ a_len+8(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-32, DX
	CMPQ DX, $0
	JE   dot_fold

dot_loop32:
	VMOVUPS (SI)(AX*4), Y4
	VMOVUPS 32(SI)(AX*4), Y5
	VMOVUPS 64(SI)(AX*4), Y6
	VMOVUPS 96(SI)(AX*4), Y7
	VFMADD231PS (DI)(AX*4), Y4, Y0
	VFMADD231PS 32(DI)(AX*4), Y5, Y1
	VFMADD231PS 64(DI)(AX*4), Y6, Y2
	VFMADD231PS 96(DI)(AX*4), Y7, Y3
	ADDQ $32, AX
	CMPQ AX, DX
	JL   dot_loop32

dot_fold:
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y2, Y0, Y0
	MOVQ CX, DX
	ANDQ $-8, DX

dot_loop8:
	CMPQ AX, DX
	JGE  dot_reduce
	VMOVUPS (SI)(AX*4), Y4
	VFMADD231PS (DI)(AX*4), Y4, Y0
	ADDQ $8, AX
	JMP  dot_loop8

dot_reduce:
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0

dot_tail:
	CMPQ AX, CX
	JGE  dot_done
	VMOVSS (SI)(AX*4), X4
	VFMADD231SS (DI)(AX*4), X4, X0
	INCQ AX
	JMP  dot_tail

dot_done:
	VMOVSS X0, ret+48(FP)
	VZEROUPPER
	RET

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
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func PrefetchInt32s(s []int32)
TEXT ·PrefetchInt32s(SB), NOSPLIT, $0-24
	MOVQ s_base+0(FP), AX
	PREFETCHT0 (AX)
	PREFETCHT0 64(AX)
	RET

// ---- gather kernel ----------------------------------------------------------
//
// dotGatherAVX2 scores one query against the n rows idxs[0..n) of a flat
// arena in a single call and stores the results to out[0..n). Row i starts
// i*stride floats into rows. Each row is summed exactly as dotAVX2 sums it —
// the same four accumulators over the 32-wide loop, the same fold, 8-wide
// loop, reduction and scalar-FMA tail — so out[j] has the bits of the
// single-pair call.
//
// What the single call buys is that the misses overlap: a walk's rows are
// scattered over an arena far larger than L2, and a row's sixteen cache
// lines (dim 256) only start to arrive once its first load issues. While row
// j is summed, every pass of the 32-wide loop prefetches the two lines at the
// same offset of row idxs[j+ahead], so a whole row is requested across the
// arithmetic of an earlier one. Rows 0..ahead-1 of a block get no request of
// their own; their demand loads are the next in line anyway. Past the end of
// idxs the look-ahead row is the current one (its lines are already on their
// way — no branch in the loop, no read of idxs[n..]). Prefetches stay below
// offset dim&^31 of a row, loads below dim: nothing touches a byte outside
// the rows idxs names.
//
// Callers guarantee, for every j, that row idxs[j] lies whole inside the
// arena (batch.go checks before the call), and ahead >= 0.
//
// Registers: SI q, R8 rows, R9 stride in bytes, R10 idxs, R11 n, R12 ahead,
// R13 out, BX j, DI current row, R14 look-ahead row, AX element index, DX
// loop bound; dim stays in its argument slot.

// func dotGatherAVX2(q, rows *float32, dim, stride int, idxs *int32, n, ahead int, out *float32)
TEXT ·dotGatherAVX2(SB), NOSPLIT, $0-64
	MOVQ q+0(FP), SI
	MOVQ rows+8(FP), R8
	MOVQ stride+24(FP), R9
	SHLQ $2, R9 // stride in bytes
	MOVQ idxs+32(FP), R10
	MOVQ n+40(FP), R11
	MOVQ ahead+48(FP), R12
	MOVQ out+56(FP), R13
	XORQ BX, BX

dotg_row:
	CMPQ BX, R11
	JGE  dotg_done
	// Row addresses for j = BX (the look-ahead index clamps to j past the
	// end), zeroed accumulators, DX = dim&^31.
	MOVLQSX (R10)(BX*4), DI
	IMULQ R9, DI
	ADDQ R8, DI
	LEAQ (BX)(R12*1), AX
	CMPQ AX, R11
	CMOVQGE BX, AX
	MOVLQSX (R10)(AX*4), R14
	IMULQ R9, R14
	ADDQ R8, R14
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ AX, AX
	MOVQ dim+16(FP), DX
	ANDQ $-32, DX
	CMPQ DX, $0
	JE   dotg_fold

dotg_loop32:
	PREFETCHT0 (R14)(AX*4)
	PREFETCHT0 64(R14)(AX*4)
	VMOVUPS (SI)(AX*4), Y4
	VMOVUPS 32(SI)(AX*4), Y5
	VMOVUPS 64(SI)(AX*4), Y6
	VMOVUPS 96(SI)(AX*4), Y7
	VFMADD231PS (DI)(AX*4), Y4, Y0
	VFMADD231PS 32(DI)(AX*4), Y5, Y1
	VFMADD231PS 64(DI)(AX*4), Y6, Y2
	VFMADD231PS 96(DI)(AX*4), Y7, Y3
	ADDQ $32, AX
	CMPQ AX, DX
	JL   dotg_loop32

dotg_fold:
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y2, Y0, Y0
	MOVQ dim+16(FP), DX
	ANDQ $-8, DX

dotg_loop8:
	CMPQ AX, DX
	JGE  dotg_reduce
	VMOVUPS (SI)(AX*4), Y4
	VFMADD231PS (DI)(AX*4), Y4, Y0
	ADDQ $8, AX
	JMP  dotg_loop8

dotg_reduce:
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0

dotg_tail:
	CMPQ AX, dim+16(FP)
	JGE  dotg_store
	VMOVSS (SI)(AX*4), X4
	VFMADD231SS (DI)(AX*4), X4, X0
	INCQ AX
	JMP  dotg_tail

dotg_store:
	VMOVSS X0, (R13)(BX*4)
	INCQ BX
	JMP  dotg_row

dotg_done:
	VZEROUPPER
	RET

// ---- bitmask-row threshold kernels -------------------------------------------
//
// maskAtLeast32AVX2 and maskAtLeast32AVX512 score one bitmask row — `words`
// 64-bit mask words at mask, bit c set for each stored coordinate, and its n
// values packed at vals in coordinate order — against a 32-row
// dimension-major block (row l's coordinate c at blockT[c*32+l]) and return
// in bits 0..31 of out whether each row's sum vals[k]·blockT[c_k*32+l] is
// >= thr. They walk the mask a word at a time: TZCNT names the lowest set
// bit, BLSR clears it, and its value is the next one at vals. The 32 sums of
// an accumulator set are four YMM (AVX2) or two ZMM (AVX-512) registers; the
// AVX2 kernel keeps two sets and the AVX-512 kernel four, so each runs eight
// independent FMA chains, each FMA reading its B operand straight from the
// block. A word's nonzeros go to the sets in turn, starting from the first
// set at each word. The sets are added, compared with thr (ordered: a NaN
// sum is never >= thr) and packed to the 32-bit mask.
//
// Each word is checked before any of its bits is read: a bit at or past dim
// (the Go side passes words = ceil(dim/64), so only a last word can hold
// one), or more bits so far than n values, returns ok = false with nothing
// read at it, as does a mask with fewer bits than n; the Go wrapper panics.
//
// Registers: SI mask, R14 words, R13 the word index, R12 the word's bits
// left, DI the next value, DX n, BX the bits counted so far, R8 blockT, R10
// the column of the word's bit 0 (R8 + 64·128·index), R11 dim, R9 the current
// column, AX and CX scratch. The AVX2 sets are Y0-Y3 and Y4-Y7, the AVX-512
// sets Z0/Z1, Z2/Z3, Z4/Z5 and Z6/Z7.

// MASKWORD loads word R13 into R12 and checks it (jumping to bad), sets R10
// to its bit 0's column and advances R13; it jumps to reduce past the last
// word.
#define MASKWORD(reduce, bad) \
	CMPQ R13, R14 \
	JGE  reduce \
	MOVQ (SI)(R13*8), R12 \
	MOVQ R13, AX \
	SHLQ $6, AX \
	MOVQ R11, CX \
	SUBQ AX, CX \
	CMPQ CX, $64 \
	JAE  4(PC) \
	MOVQ R12, AX \
	SHRQ CX, AX \
	JNZ  bad \
	POPCNTQ R12, AX \
	ADDQ AX, BX \
	CMPQ BX, DX \
	JA   bad \
	MOVQ R13, R10 \
	SHLQ $13, R10 \
	ADDQ R8, R10 \
	INCQ R13

// NEXTBIT points R9 at the column of R12's lowest set bit and clears it.
#define NEXTBIT \
	TZCNTQ R12, R9 \
	BLSRQ R12, R12 \
	SHLQ $7, R9 \
	ADDQ R10, R9

// func maskAtLeast32AVX2(mask *uint32, words int, vals *float32, n int, blockT *float32, dim int, thr float32) (out uint32, ok bool)
TEXT ·maskAtLeast32AVX2(SB), NOSPLIT, $0-61
	MOVQ mask+0(FP), SI
	MOVQ words+8(FP), R14
	MOVQ vals+16(FP), DI
	MOVQ n+24(FP), DX
	MOVQ blockT+32(FP), R8
	MOVQ dim+40(FP), R11
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	XORQ R13, R13
	XORQ BX, BX

ma2_word:
	MASKWORD(ma2_reduce, ma2_bad)

ma2_bits:
	TESTQ R12, R12
	JZ    ma2_word
	NEXTBIT
	VBROADCASTSS (DI), Y8
	VFMADD231PS (R9), Y8, Y0
	VFMADD231PS 32(R9), Y8, Y1
	VFMADD231PS 64(R9), Y8, Y2
	VFMADD231PS 96(R9), Y8, Y3
	TESTQ R12, R12
	JZ    ma2_word1
	NEXTBIT
	VBROADCASTSS 4(DI), Y9
	VFMADD231PS (R9), Y9, Y4
	VFMADD231PS 32(R9), Y9, Y5
	VFMADD231PS 64(R9), Y9, Y6
	VFMADD231PS 96(R9), Y9, Y7
	ADDQ $8, DI
	JMP  ma2_bits

ma2_word1:
	ADDQ $4, DI
	JMP  ma2_word

ma2_reduce:
	CMPQ BX, DX
	JNE  ma2_bad
	VADDPS Y4, Y0, Y0
	VADDPS Y5, Y1, Y1
	VADDPS Y6, Y2, Y2
	VADDPS Y7, Y3, Y3
	VBROADCASTSS thr+48(FP), Y8
	VCMPPS $0x1d, Y8, Y0, Y0 // GE_OQ: Y0 >= thr
	VCMPPS $0x1d, Y8, Y1, Y1
	VCMPPS $0x1d, Y8, Y2, Y2
	VCMPPS $0x1d, Y8, Y3, Y3
	VMOVMSKPS Y0, AX
	VMOVMSKPS Y1, BX
	SHLL $8, BX
	ORL  BX, AX
	VMOVMSKPS Y2, BX
	SHLL $16, BX
	ORL  BX, AX
	VMOVMSKPS Y3, BX
	SHLL $24, BX
	ORL  BX, AX
	MOVL AX, out+56(FP)
	MOVB $1, ok+60(FP)
	VZEROUPPER
	RET

ma2_bad:
	MOVL $0, out+56(FP)
	MOVB $0, ok+60(FP)
	VZEROUPPER
	RET

// FMA5 adds the value at off(DI) times the column at R9 into the set lo/hi.
#define FMA5(off, v, lo, hi) \
	VBROADCASTSS off(DI), v \
	VFMADD231PS (R9), v, lo \
	VFMADD231PS 64(R9), v, hi

// func maskAtLeast32AVX512(mask *uint32, words int, vals *float32, n int, blockT *float32, dim int, thr float32) (out uint32, ok bool)
TEXT ·maskAtLeast32AVX512(SB), NOSPLIT, $0-61
	MOVQ mask+0(FP), SI
	MOVQ words+8(FP), R14
	MOVQ vals+16(FP), DI
	MOVQ n+24(FP), DX
	MOVQ blockT+32(FP), R8
	MOVQ dim+40(FP), R11
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	XORQ R13, R13
	XORQ BX, BX

ma5_word:
	MASKWORD(ma5_reduce, ma5_bad)

ma5_bits:
	TESTQ R12, R12
	JZ    ma5_word
	NEXTBIT
	FMA5(0, Z8, Z0, Z1)
	TESTQ R12, R12
	JZ    ma5_word1
	NEXTBIT
	FMA5(4, Z9, Z2, Z3)
	TESTQ R12, R12
	JZ    ma5_word2
	NEXTBIT
	FMA5(8, Z10, Z4, Z5)
	TESTQ R12, R12
	JZ    ma5_word3
	NEXTBIT
	FMA5(12, Z11, Z6, Z7)
	ADDQ $16, DI
	JMP  ma5_bits

ma5_word1:
	ADDQ $4, DI
	JMP  ma5_word

ma5_word2:
	ADDQ $8, DI
	JMP  ma5_word

ma5_word3:
	ADDQ $12, DI
	JMP  ma5_word

ma5_reduce:
	CMPQ BX, DX
	JNE  ma5_bad
	VADDPS Z2, Z0, Z0
	VADDPS Z6, Z4, Z4
	VADDPS Z4, Z0, Z0
	VADDPS Z3, Z1, Z1
	VADDPS Z7, Z5, Z5
	VADDPS Z5, Z1, Z1
	VBROADCASTSS thr+48(FP), Z8
	VCMPPS $0x1d, Z8, Z0, K1 // GE_OQ: Z0 >= thr
	VCMPPS $0x1d, Z8, Z1, K2
	KMOVW K1, AX
	KMOVW K2, BX
	SHLL $16, BX
	ORL  BX, AX
	MOVL AX, out+56(FP)
	MOVB $1, ok+60(FP)
	VZEROUPPER
	RET

ma5_bad:
	MOVL $0, out+56(FP)
	MOVB $0, ok+60(FP)
	VZEROUPPER
	RET

// ---- bitmask-row gather kernels ------------------------------------------------
//
// dotMaskAVX512 and dotMaskAVX2 score one query against n bitmask rows of a
// SparseRows store in a single call and store the results to out[0..n). The
// Go side resolves the rows: rows[j] points at row j, which is its mask (bit
// c set iff coordinate c is stored; little-endian, so byte c/8 holds
// coordinates c&^7 .. c|7), `skip` bytes long, followed by the stored
// values, packed in coordinate order. Each kernel expands a group of lanes
// from the packed values into a register — a lane whose mask bit is clear
// reads +0, as the dense row holds there — and sums exactly as dotAVX2 sums
// the dense row: the same 32-lane accumulators over the 32-wide loop, the
// same fold, 8-wide loop, reduction and scalar-FMA tail, each FMA with the
// query as its second source and the row as its third. So out[j] has the bits
// of dotAVX2 on the expanded row, NaN payloads included.
//
// Neither reads a byte past a row: a group's values are fetched by an
// instruction that touches only the lanes its mask selects (VEXPANDPS's
// memory form; VMASKMOVPS under a mask of the first popcount lanes), whose
// masked-off lanes never fault, and the tail reads value by value. While row
// j is summed, every pass of the 32-wide loop prefetches the two lines of
// row j+ahead (clamped to j past the end, as in dotGatherAVX2) at the offset
// the current row has reached; a prefetch never faults.
//
// Registers: SI q, R8 rows, R11 n, R13 out (the AVX2 kernel: the current
// mask bytes, out is reloaded to store), BX j, DI the current mask byte, R10
// the next packed value, R14 the look-ahead row minus the current one, AX
// element index, DX loop bound, CX and R12 scratch; the AVX2 kernel's R9 is
// the expansion table (maskExpand).

// func dotMaskAVX512(q *float32, dim int, rows *unsafe.Pointer, skip, n, ahead int, out *float32)
TEXT ·dotMaskAVX512(SB), NOSPLIT, $0-56
	MOVQ q+0(FP), SI
	MOVQ rows+16(FP), R8
	MOVQ n+32(FP), R11
	MOVQ out+48(FP), R13
	XORQ BX, BX

dm5_row:
	CMPQ BX, R11
	JGE  dm5_done
	MOVQ (R8)(BX*8), DI
	MOVQ ahead+40(FP), CX
	ADDQ BX, CX
	CMPQ CX, R11
	CMOVQGE BX, CX
	MOVQ (R8)(CX*8), R14
	SUBQ DI, R14
	PREFETCHT0 (DI)(R14*1)
	MOVQ DI, R10
	ADDQ skip+24(FP), R10
	VXORPS Y0, Y0, Y0 // a VEX write clears the upper halves of Z0 and Z1
	VXORPS Y1, Y1, Y1
	XORQ AX, AX
	MOVQ dim+8(FP), DX
	ANDQ $-32, DX
	JZ   dm5_fold

dm5_loop32:
	// Lanes AX..AX+15 into Z4, AX+16..AX+31 into Z5: Z0 holds dotAVX2's
	// Y0 and Y1, Z1 its Y2 and Y3.
	MOVWLZX (DI), R12
	KMOVW R12, K1
	POPCNTL R12, R12
	VEXPANDPS.Z (R10), K1, Z4
	LEAQ (R10)(R12*4), R10
	MOVWLZX 2(DI), R12
	KMOVW R12, K2
	POPCNTL R12, R12
	VEXPANDPS.Z (R10), K2, Z5
	LEAQ (R10)(R12*4), R10
	PREFETCHT0 (R10)(R14*1)
	PREFETCHT0 64(R10)(R14*1)
	VMOVUPS (SI)(AX*4), Z6
	VMOVUPS 64(SI)(AX*4), Z7
	VFMADD231PS Z4, Z6, Z0
	VFMADD231PS Z5, Z7, Z1
	ADDQ $4, DI
	ADDQ $32, AX
	CMPQ AX, DX
	JL   dm5_loop32

dm5_fold:
	// (Y0+Y1)+(Y2+Y3), each sum with dotAVX2's operands in dotAVX2's order.
	VEXTRACTF64X4 $1, Z0, Y4
	VADDPS Y4, Y0, Y0
	VEXTRACTF64X4 $1, Z1, Y5
	VADDPS Y5, Y1, Y1
	VADDPS Y1, Y0, Y0
	MOVQ dim+8(FP), DX
	ANDQ $-8, DX

dm5_loop8:
	CMPQ AX, DX
	JGE  dm5_reduce
	MOVBLZX (DI), R12
	KMOVW R12, K1
	POPCNTL R12, R12
	VEXPANDPS.Z (R10), K1, Z4
	LEAQ (R10)(R12*4), R10
	VMOVUPS (SI)(AX*4), Y6
	VFMADD231PS Y4, Y6, Y0
	INCQ DI
	ADDQ $8, AX
	JMP  dm5_loop8

dm5_reduce:
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	CMPQ AX, dim+8(FP)
	JGE  dm5_store
	MOVBLZX (DI), CX

dm5_tail:
	// One coordinate a step: its stored value, or +0.
	VXORPS X4, X4, X4
	SHRL $1, CX
	JCC  dm5_tailfma
	VMOVSS (R10), X4
	ADDQ $4, R10

dm5_tailfma:
	VMOVSS (SI)(AX*4), X6
	VFMADD231SS X4, X6, X0
	INCQ AX
	CMPQ AX, dim+8(FP)
	JL   dm5_tail

dm5_store:
	VMOVSS X0, (R13)(BX*4)
	INCQ BX
	JMP  dm5_row

dm5_done:
	VZEROUPPER
	RET

// EXPAND8 expands the 8-lane group whose mask byte is the low byte of
// register m into Y4, from the packed values at R10, and advances R10 past
// them. Row m of the table at R9 (32 bytes) serves both instructions: its
// sign bits are VMASKMOVPS's mask of m's popcount lanes, and its low three
// bits are VPERMPS's index vector for mask m — lane l takes the value of
// rank popcount(m & (1<<l - 1)) if bit l is set, else the first lane
// VMASKMOVPS left +0.
#define EXPAND8(m) \
	MOVBLZX m, R12; \
	POPCNTL R12, CX; \
	SHLQ $5, R12; \
	VMOVDQU (R9)(R12*1), Y5; \
	VMASKMOVPS (R10), Y5, Y4; \
	VPERMPS Y4, Y5, Y4; \
	LEAQ (R10)(CX*4), R10

// func dotMaskAVX2(q *float32, dim int, rows *unsafe.Pointer, skip, n, ahead int, out *float32, table *int32)
TEXT ·dotMaskAVX2(SB), NOSPLIT, $0-64
	MOVQ q+0(FP), SI
	MOVQ rows+16(FP), R8
	MOVQ n+32(FP), R11
	MOVQ table+56(FP), R9
	XORQ BX, BX

dm2_row:
	CMPQ BX, R11
	JGE  dm2_done
	MOVQ (R8)(BX*8), DI
	MOVQ ahead+40(FP), CX
	ADDQ BX, CX
	CMPQ CX, R11
	CMOVQGE BX, CX
	MOVQ (R8)(CX*8), R14
	SUBQ DI, R14
	PREFETCHT0 (DI)(R14*1)
	MOVQ DI, R10
	ADDQ skip+24(FP), R10
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ AX, AX
	MOVQ dim+8(FP), DX
	ANDQ $-32, DX
	JZ   dm2_fold

dm2_loop32:
	// The 32 lanes' four mask bytes, one load.
	MOVL (DI), R13
	EXPAND8(R13)
	VMOVUPS (SI)(AX*4), Y6
	VFMADD231PS Y4, Y6, Y0
	SHRL $8, R13
	EXPAND8(R13)
	VMOVUPS 32(SI)(AX*4), Y6
	VFMADD231PS Y4, Y6, Y1
	SHRL $8, R13
	EXPAND8(R13)
	VMOVUPS 64(SI)(AX*4), Y6
	VFMADD231PS Y4, Y6, Y2
	SHRL $8, R13
	EXPAND8(R13)
	VMOVUPS 96(SI)(AX*4), Y6
	VFMADD231PS Y4, Y6, Y3
	PREFETCHT0 (R10)(R14*1)
	PREFETCHT0 64(R10)(R14*1)
	ADDQ $4, DI
	ADDQ $32, AX
	CMPQ AX, DX
	JL   dm2_loop32

dm2_fold:
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y2, Y0, Y0
	MOVQ dim+8(FP), DX
	ANDQ $-8, DX

dm2_loop8:
	CMPQ AX, DX
	JGE  dm2_reduce
	MOVBLZX (DI), R13
	EXPAND8(R13)
	VMOVUPS (SI)(AX*4), Y6
	VFMADD231PS Y4, Y6, Y0
	INCQ DI
	ADDQ $8, AX
	JMP  dm2_loop8

dm2_reduce:
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	CMPQ AX, dim+8(FP)
	JGE  dm2_store
	MOVBLZX (DI), CX

dm2_tail:
	VXORPS X4, X4, X4
	SHRL $1, CX
	JCC  dm2_tailfma
	VMOVSS (R10), X4
	ADDQ $4, R10

dm2_tailfma:
	VMOVSS (SI)(AX*4), X6
	VFMADD231SS X4, X6, X0
	INCQ AX
	CMPQ AX, dim+8(FP)
	JL   dm2_tail

dm2_store:
	MOVQ out+48(FP), CX
	VMOVSS X0, (CX)(BX*4)
	INCQ BX
	JMP  dm2_row

dm2_done:
	VZEROUPPER
	RET

// ---- bitmask-row expansion ------------------------------------------------------
//
// expandMaskAVX512 and expandMaskAVX2 expand a bitmask row (its mask at row,
// its packed values skip bytes on) to dense lanes, each group of 16 or 8 as
// the gather kernels expand it, and store them to dst[0..dim) — or, with add
// set, add them to dst[0..dim) first (dst as the first operand, as Go's
// dst[i] += v has it, so a NaN in both keeps dst's payload). The last partial
// group goes through a mask of its dim mod 16 (or 8) lanes. A copy moves
// data and keeps every value's bits, signalling NaNs included; an add adds
// +0 where the row has no value, which is the skip wherever dst holds no −0
// and no signalling NaN. They read no byte past the row (as the gathers) and
// touch none past dst[dim).

// func expandMaskAVX512(dst *float32, row *uint32, dim, skip int, add bool)
TEXT ·expandMaskAVX512(SB), NOSPLIT, $0-33
	MOVQ dst+0(FP), R8
	MOVQ row+8(FP), DI
	MOVQ dim+16(FP), DX
	MOVQ DI, R10
	ADDQ skip+24(FP), R10
	MOVBLZX add+32(FP), R13
	MOVQ DX, R11
	ANDQ $-16, R11
	XORQ AX, AX

em5_loop:
	CMPQ AX, R11
	JGE  em5_tail
	MOVWLZX (DI), R12
	KMOVW R12, K1
	POPCNTL R12, R12
	VEXPANDPS.Z (R10), K1, Z0
	LEAQ (R10)(R12*4), R10
	TESTQ R13, R13
	JZ   em5_store
	VMOVUPS (R8)(AX*4), Z1
	VADDPS Z0, Z1, Z0

em5_store:
	VMOVUPS Z0, (R8)(AX*4)
	ADDQ $2, DI
	ADDQ $16, AX
	JMP  em5_loop

em5_tail:
	CMPQ AX, DX
	JGE  em5_done
	MOVWLZX (DI), R12
	KMOVW R12, K1
	VEXPANDPS.Z (R10), K1, Z0
	MOVQ DX, CX
	SUBQ AX, CX
	MOVL $1, R12
	SHLL CX, R12
	DECL R12
	KMOVW R12, K2
	TESTQ R13, R13
	JZ   em5_tailstore
	VMOVUPS.Z (R8)(AX*4), K2, Z1
	VADDPS Z0, Z1, Z0

em5_tailstore:
	VMOVUPS Z0, K2, (R8)(AX*4)

em5_done:
	VZEROUPPER
	RET

// func expandMaskAVX2(dst *float32, row *uint32, dim, skip int, add bool, table *int32)
TEXT ·expandMaskAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), R8
	MOVQ row+8(FP), DI
	MOVQ dim+16(FP), DX
	MOVQ DI, R10
	ADDQ skip+24(FP), R10
	MOVBLZX add+32(FP), R14
	MOVQ table+40(FP), R9
	MOVQ DX, R11
	ANDQ $-8, R11
	XORQ AX, AX

em2_loop:
	CMPQ AX, R11
	JGE  em2_tail
	MOVBLZX (DI), R13
	EXPAND8(R13)
	TESTQ R14, R14
	JZ   em2_store
	VMOVUPS (R8)(AX*4), Y5
	VADDPS Y4, Y5, Y4

em2_store:
	VMOVUPS Y4, (R8)(AX*4)
	INCQ DI
	ADDQ $8, AX
	JMP  em2_loop

em2_tail:
	CMPQ AX, DX
	JGE  em2_done
	MOVBLZX (DI), R13
	EXPAND8(R13)
	// The table's sign bits for m = 1<<(dim-AX) - 1 are its first dim-AX
	// lanes.
	MOVQ DX, CX
	SUBQ AX, CX
	MOVL $1, R12
	SHLL CX, R12
	DECL R12
	SHLQ $5, R12
	VMOVDQU (R9)(R12*1), Y6
	TESTQ R14, R14
	JZ   em2_tailstore
	VMASKMOVPS (R8)(AX*4), Y6, Y5
	VADDPS Y4, Y5, Y4

em2_tailstore:
	VMASKMOVPS Y4, Y6, (R8)(AX*4)

em2_done:
	VZEROUPPER
	RET
