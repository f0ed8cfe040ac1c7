//go:build !amd64

package nn

// Non-amd64 builds always use the portable scalar kernel.
const useAVX2 = false

// gemmPanel8 is never called when useAVX2 is false; this stub keeps the
// call site compiling on other architectures.
func gemmPanel8(x, w, y, bias *float32, rows, kUsed, xStride, yStride int, mask *int32) {
	panic("nn: gemmPanel8 without AVX2")
}

// SetScalarGemmForTest is a no-op without an assembly kernel to toggle.
func SetScalarGemmForTest(scalar bool) (prev bool) { return true }
