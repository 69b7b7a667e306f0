// AVX2+FMA distance kernels. Each kernel handles arbitrary vector lengths:
// the one-pair kernels run a 32-element FMA main loop over four accumulator
// registers (hiding FMA latency, mirroring the scalar kernels' unrolls),
// an 8-element loop, a horizontal reduction, and a scalar-FMA tail. Loads
// are unaligned (VMOVUPS) — arena rows have no alignment guarantee.
//
// Note on operand order: Go assembly reverses Intel syntax, so
// VFMADD231PS src3, src2, dst computes dst += src2*src3.
//
// Callers guarantee len(a) == len(b); only a's length is read.

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

// ---- 2x4 register-tile kernel ----------------------------------------------
//
// dotTileAVX2 evaluates two A rows against `groups` consecutive groups of
// four B rows (row r of group g at b + (4g+r)*strideB floats) and stores the
// eight results of each group to out0[4g..4g+3] (row a0) and out1[4g..4g+3]
// (row a1). Each of the eight pairs owns one YMM accumulator — eight
// independent FMA chains, which is exactly what two FMA ports at latency four
// need — and every loaded vector feeds two (A rows) or four (B rows) FMAs, so
// the loop runs on the FMA ports instead of the load ports as the one-pair
// kernels do.
//
// Every pair is reduced the same way whatever its position in the group:
// 8-wide FMA steps into its accumulator, the fixed add tree
// ((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7)), then one FMA per tail element. The Go
// driver (tile.go) handles odd row counts by re-pointing the kernel at rows
// it has already seen, so a pair's value never depends on where in a tile
// it falls.

// func dotTileAVX2(a0, a1, b *float32, strideB, groups, dim int, out0, out1 *float32)
TEXT ·dotTileAVX2(SB), NOSPLIT, $0-64
	MOVQ a0+0(FP), SI
	MOVQ a1+8(FP), DI
	MOVQ b+16(FP), R8
	MOVQ strideB+24(FP), R9
	SHLQ $2, R9 // stride in bytes
	MOVQ groups+32(FP), R14
	MOVQ dim+40(FP), CX
	MOVQ out0+48(FP), R13
	MOVQ out1+56(FP), BX
	MOVQ CX, DX
	ANDQ $-8, DX
	TESTQ R14, R14
	JLE  dtile_done

dtile_group:
	// Row pointers of the current group and zeroed accumulators.
	LEAQ (R8)(R9*1), R10
	LEAQ (R10)(R9*1), R11
	LEAQ (R11)(R9*1), R12
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	XORQ AX, AX
	CMPQ DX, $0
	JE   dtile_reduce

dtile_loop8:
	VMOVUPS (SI)(AX*4), Y8
	VMOVUPS (DI)(AX*4), Y9
	VMOVUPS (R8)(AX*4), Y10
	VMOVUPS (R10)(AX*4), Y11
	VMOVUPS (R11)(AX*4), Y12
	VMOVUPS (R12)(AX*4), Y13
	VFMADD231PS Y10, Y8, Y0
	VFMADD231PS Y11, Y8, Y1
	VFMADD231PS Y12, Y8, Y2
	VFMADD231PS Y13, Y8, Y3
	VFMADD231PS Y10, Y9, Y4
	VFMADD231PS Y11, Y9, Y5
	VFMADD231PS Y12, Y9, Y6
	VFMADD231PS Y13, Y9, Y7
	ADDQ $8, AX
	CMPQ AX, DX
	JL   dtile_loop8

dtile_reduce:
	// Y0..Y3 -> X0 (four sums of row a0), Y4..Y7 -> X4 (row a1).
	VHADDPS Y1, Y0, Y0
	VHADDPS Y3, Y2, Y2
	VHADDPS Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VHADDPS Y5, Y4, Y4
	VHADDPS Y7, Y6, Y6
	VHADDPS Y6, Y4, Y4
	VEXTRACTF128 $1, Y4, X5
	VADDPS X5, X4, X4

dtile_tail:
	CMPQ AX, CX
	JGE  dtile_store
	// Tail element AX of the four B rows -> X10, of a0/a1 broadcast -> X8/X9.
	VMOVSS (R8)(AX*4), X10
	VINSERTPS $0x10, (R10)(AX*4), X10, X10
	VINSERTPS $0x20, (R11)(AX*4), X10, X10
	VINSERTPS $0x30, (R12)(AX*4), X10, X10
	VBROADCASTSS (SI)(AX*4), X8
	VBROADCASTSS (DI)(AX*4), X9
	VFMADD231PS X10, X8, X0
	VFMADD231PS X10, X9, X4
	INCQ AX
	JMP  dtile_tail

dtile_store:
	VMOVUPS X0, (R13)
	VMOVUPS X4, (BX)
	ADDQ $16, R13
	ADDQ $16, BX
	LEAQ (R12)(R9*1), R8
	DECQ R14
	JNZ  dtile_group

dtile_done:
	VZEROUPPER
	RET

// ---- gather kernel ----------------------------------------------------------
//
// dotGatherAVX2 scores one query against the n rows idxs[0..n) of an arena
// (row i at rows + i*stride floats) in a single call and stores the results
// to out[0..n). Each row is summed exactly as dotAVX2 sums it — the same four
// accumulators over the 32-wide loop, the same fold, 8-wide loop, reduction
// and scalar-FMA tail — so out[j] has the bits of the single-pair call.
//
// What the single call buys is that the misses overlap: a graph walk's rows
// are scattered over an arena far larger than L2, and a row's sixteen cache
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
// Callers guarantee 0 <= idxs[j] and idxs[j]*stride+dim <= len(rows) for
// every j (batch.go checks before the call) and ahead >= 0.
//
// Registers: SI q, R8 rows, R9 stride in bytes, R10 idxs, R11 n, R12 ahead,
// R13 out, CX dim, BX j, DI current row, R14 look-ahead row, AX element
// index, DX loop bound.

// func dotGatherAVX2(q, rows *float32, dim, stride int, idxs *int32, n, ahead int, out *float32)
TEXT ·dotGatherAVX2(SB), NOSPLIT, $0-64
	MOVQ q+0(FP), SI
	MOVQ rows+8(FP), R8
	MOVQ dim+16(FP), CX
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
	// Row pointers for j = BX (the look-ahead index clamps to j past the
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
	MOVQ CX, DX
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
	MOVQ CX, DX
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
	CMPQ AX, CX
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

// ---- sparse-row threshold kernel ---------------------------------------------
//
// sparseAtLeast32AVX2 scores one sparse row — n nonzero coordinates idx[k]
// with values val[k] — against a 32-row dimension-major block (row l's
// coordinate d at blockT[d*32+l], dim = the block's length / 32) and returns
// in bits 0..31 of mask whether each row's sum val[k]·blockT[idx[k]*32+l]
// is >= thr. The 32 sums live in four YMM registers per accumulator set;
// two nonzeros a step feed two sets (eight independent FMA chains, each FMA
// reading its B operand straight from the block), and an odd last nonzero
// goes to the first set. The sets are added, compared with thr (ordered: a
// NaN sum is never >= thr) and packed with VMOVMSKPS.
//
// Every index is checked against dim before its column is read: the first
// one out of range (negative ones included, compared unsigned) returns
// ok = false with nothing read at it, and the Go wrapper panics.
//
// Registers: SI idx, DI val, CX n, R8 blockT, R11 dim, AX k, DX n&^1,
// R9/R10 the byte offsets of the current columns, Y0-Y3 and Y4-Y7 the two
// accumulator sets, Y8/Y9 the broadcast values.

// func sparseAtLeast32AVX2(idx *int32, val *float32, n int, blockT *float32, dim int, thr float32) (mask uint32, ok bool)
TEXT ·sparseAtLeast32AVX2(SB), NOSPLIT, $0-53
	MOVQ idx+0(FP), SI
	MOVQ val+8(FP), DI
	MOVQ n+16(FP), CX
	MOVQ blockT+24(FP), R8
	MOVQ dim+32(FP), R11
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-2, DX
	JZ   sp_tail

sp_loop2:
	MOVL (SI)(AX*4), R9
	MOVL 4(SI)(AX*4), R10
	CMPQ R9, R11
	JAE  sp_bad
	CMPQ R10, R11
	JAE  sp_bad
	SHLQ $7, R9 // 32 floats a column
	SHLQ $7, R10
	VBROADCASTSS (DI)(AX*4), Y8
	VBROADCASTSS 4(DI)(AX*4), Y9
	VFMADD231PS (R8)(R9*1), Y8, Y0
	VFMADD231PS 32(R8)(R9*1), Y8, Y1
	VFMADD231PS 64(R8)(R9*1), Y8, Y2
	VFMADD231PS 96(R8)(R9*1), Y8, Y3
	VFMADD231PS (R8)(R10*1), Y9, Y4
	VFMADD231PS 32(R8)(R10*1), Y9, Y5
	VFMADD231PS 64(R8)(R10*1), Y9, Y6
	VFMADD231PS 96(R8)(R10*1), Y9, Y7
	ADDQ $2, AX
	CMPQ AX, DX
	JL   sp_loop2

sp_tail:
	CMPQ AX, CX
	JGE  sp_reduce
	MOVL (SI)(AX*4), R9
	CMPQ R9, R11
	JAE  sp_bad
	SHLQ $7, R9
	VBROADCASTSS (DI)(AX*4), Y8
	VFMADD231PS (R8)(R9*1), Y8, Y0
	VFMADD231PS 32(R8)(R9*1), Y8, Y1
	VFMADD231PS 64(R8)(R9*1), Y8, Y2
	VFMADD231PS 96(R8)(R9*1), Y8, Y3

sp_reduce:
	VADDPS Y4, Y0, Y0
	VADDPS Y5, Y1, Y1
	VADDPS Y6, Y2, Y2
	VADDPS Y7, Y3, Y3
	VBROADCASTSS thr+40(FP), Y8
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
	MOVL AX, mask+48(FP)
	MOVB $1, ok+52(FP)
	VZEROUPPER
	RET

sp_bad:
	MOVL $0, mask+48(FP)
	MOVB $0, ok+52(FP)
	VZEROUPPER
	RET
