//go:build amd64 && !purego

package phy

// AVX2 paths for the state-parallel single-block SISOs: the eight
// trellis-state metrics of one code block are the lanes of one vector
// register — eight float32 lanes of a YMM register (turbo_f32_amd64.s) or
// eight int16 lanes of an XMM register (turbo_i16_amd64.s). Each recursion
// step permutes the register twice over the fixed predecessor/successor
// index vectors, adds the branch metrics, and keeps the larger candidate
// (float32: VMAXPS with the operand order that reproduces the scalar
// `if m1 > m0` tie rule; int16: VPMAXSW, where ties cannot matter). The
// backward passes are fused with the extrinsic: beta stays in a register
// and the two 8-way branch maxima reduce as a tree (see turbo_f32.go for
// the float32 ±0 tie caveat; the int16 maxima are exact in int32).
//
// Build with -tags purego (or on non-amd64) to drop these paths and pin
// the pure-Go kernels; sisoAsm is also false at runtime when the CPU or OS
// lacks AVX2/YMM support.

// sisoAsm reports whether the AVX2 SISOs are usable on this CPU (the
// CPUID/XGETBV probe shared with the batch decoder and front-end).
var sisoAsm = cpuHasAVX2()

// TurboF32AVX2 reports whether turbo decoders run the AVX2 state-parallel
// SISOs on this build and CPU — the float32 kernel and the scalar-path
// int16 kernel share the probe (false means the bit-identical pure-Go
// kernels).
func TurboF32AVX2() bool { return sisoAsm }

// forwardF32AVX2 is forwardF32 for k ≥ 1 data steps: row t of alpha
// receives the metrics entering step t.
//
//go:noescape
func forwardF32AVX2(ls, lp, la, alpha *float32, k int)

// backwardF32AVX2 is backwardF32 for k ≥ 1 data steps: beta holds beta[k]
// on entry and beta[0] on return; ext receives the k extrinsic values.
//
//go:noescape
func backwardF32AVX2(ls, lp, la, ext, alpha *float32, beta *[turboStates]float32, k int)

// forwardI16AVX2 is sisoI16's forward recursion for k data steps (k a
// multiple of 8), renormalizing every fourth step: row t of alpha receives
// the metrics entering step t, in the backward pass's lane order (state
// 0 2 1 3 6 4 7 5), and gb[4t:4t+4] the step's backward branch metrics
// g0 g1 lp>>1 −(lp>>1).
//
//go:noescape
func forwardI16AVX2(ls, lp, la, alpha *int16, gb *int32, k int)

// backwardI16AVX2 is sisoI16's fused backward recursion + extrinsic for k
// data steps (k a multiple of 4), reading the alpha rows and branch
// metrics forwardI16AVX2 wrote: beta holds the renormalized beta[k]; ext
// receives the k clamped extrinsic values.
//
//go:noescape
func backwardI16AVX2(gb *int32, ext, alpha *int16, beta *[turboStates]int16, k int)

// quantizeI16AVX2 is quantizeLLR over n values (n a multiple of 8).
//
//go:noescape
func quantizeI16AVX2(dst *int16, src *float32, n int)
