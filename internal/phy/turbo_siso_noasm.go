//go:build !amd64 || purego

package phy

// sisoAsm is false without the amd64 AVX2 path; the compiler removes the
// vector branches of sisoF32 and sisoI16, leaving the pure-Go kernels.
const sisoAsm = false

// TurboF32AVX2 reports whether turbo decoders run the AVX2 state-parallel
// SISOs on this build and CPU — the float32 kernel and the scalar-path
// int16 kernel share the probe (false means the bit-identical pure-Go
// kernels).
func TurboF32AVX2() bool { return sisoAsm }

// The AVX2 kernels are unreachable in this build (sisoAsm is a false
// constant); the stubs keep the call sites compiling.

func forwardF32AVX2(ls, lp, la, alpha *float32, k int) {
	panic("phy: AVX2 float32 SISO unavailable in this build")
}

func backwardF32AVX2(ls, lp, la, ext, alpha *float32, beta *[turboStates]float32, k int) {
	panic("phy: AVX2 float32 SISO unavailable in this build")
}

func forwardI16AVX2(ls, lp, la, alpha *int16, gb *int32, k int) {
	panic("phy: AVX2 int16 SISO unavailable in this build")
}

func backwardI16AVX2(gb *int32, ext, alpha *int16, beta *[turboStates]int16, k int) {
	panic("phy: AVX2 int16 SISO unavailable in this build")
}

func quantizeI16AVX2(dst *int16, src *float32, n int) {
	panic("phy: AVX2 int16 SISO unavailable in this build")
}
