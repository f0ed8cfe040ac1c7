// AVX2/FMA micro-kernel for the packed float32 GEMM (see f32.go for the
// panel layout). One call computes one 8-output panel for all rows:
//
//	y[r][0:8] = bias[0:8] + Σ_k x[r][k] · w[k][0:8]
//
// The main loop processes 4 rows at a time: one contiguous 8-wide weight
// load is reused by 4 broadcast input scalars through 4 independent FMA
// accumulator chains (Y0-Y3), so the kernel retires 32 multiply-adds per
// k-step and stays FMA-throughput-bound rather than load-bound. Output
// stores (and the bias load) go through vmaskmovps so the real-output tail
// of the last panel never writes past the destination row.

#include "textflag.h"

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
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

// func gemmPanel8(x, w, y, bias *float32, rows, kUsed, xStride, yStride int, mask *int32)
TEXT ·gemmPanel8(SB), NOSPLIT, $0-72
	MOVQ x+0(FP), SI
	MOVQ w+8(FP), BX
	MOVQ y+16(FP), DI
	MOVQ bias+24(FP), R8
	MOVQ rows+32(FP), CX
	MOVQ kUsed+40(FP), DX
	MOVQ xStride+48(FP), R9
	MOVQ yStride+56(FP), R10
	MOVQ mask+64(FP), R11

	VMOVDQU    (R11), Y8     // lane mask for the output tail
	VMASKMOVPS (R8), Y8, Y4  // bias (masked: Bias has only Out entries)
	SHLQ       $2, R9        // x row stride in bytes
	SHLQ       $2, R10       // y row stride in bytes

row4:
	CMPQ CX, $4
	JLT  row1

	// Row base pointers: SI, R12, R13, R14.
	LEAQ   (SI)(R9*1), R12
	LEAQ   (SI)(R9*2), R13
	LEAQ   (R12)(R9*2), R14
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ   BX, AX            // weight cursor (8 floats per k)
	XORQ   R15, R15          // k

k4:
	VMOVUPS      (AX), Y5
	VBROADCASTSS (SI)(R15*4), Y6
	VFMADD231PS  Y5, Y6, Y0
	VBROADCASTSS (R12)(R15*4), Y7
	VFMADD231PS  Y5, Y7, Y1
	VBROADCASTSS (R13)(R15*4), Y6
	VFMADD231PS  Y5, Y6, Y2
	VBROADCASTSS (R14)(R15*4), Y7
	VFMADD231PS  Y5, Y7, Y3
	ADDQ         $32, AX
	INCQ         R15
	CMPQ         R15, DX
	JLT          k4

	VADDPS     Y4, Y0, Y0
	VADDPS     Y4, Y1, Y1
	VADDPS     Y4, Y2, Y2
	VADDPS     Y4, Y3, Y3
	VMASKMOVPS Y0, Y8, (DI)
	VMASKMOVPS Y1, Y8, (DI)(R10*1)
	LEAQ       (DI)(R10*2), R12
	VMASKMOVPS Y2, Y8, (R12)
	VMASKMOVPS Y3, Y8, (R12)(R10*1)

	LEAQ (SI)(R9*4), SI
	LEAQ (DI)(R10*4), DI
	SUBQ $4, CX
	JMP  row4

row1:
	CMPQ   CX, $0
	JLE    done
	VXORPS Y0, Y0, Y0
	MOVQ   BX, AX
	XORQ   R15, R15

k1:
	VMOVUPS      (AX), Y5
	VBROADCASTSS (SI)(R15*4), Y6
	VFMADD231PS  Y5, Y6, Y0
	ADDQ         $32, AX
	INCQ         R15
	CMPQ         R15, DX
	JLT          k1

	VADDPS     Y4, Y0, Y0
	VMASKMOVPS Y0, Y8, (DI)
	ADDQ       R9, SI
	ADDQ       R10, DI
	DECQ       CX
	JMP        row1

done:
	VZEROUPPER
	RET
