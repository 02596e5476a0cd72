package phy

// State-parallel float32 max-log-MAP SISO (KernelFloat32).
//
// One SISO pass is a forward recursion that stores the K×8 alpha rows, the
// three-step tail of the backward recursion, and a fused backward pass that
// computes beta[t] and the extrinsic of step t together, so beta never
// touches memory. Both recursions walk the eight trellis states of ONE code
// block in parallel — the 8-state LTE trellis is exactly one YMM register
// of float32 — which is what the AVX2 twin (turbo_f32_amd64.s) does with
// two VPERMPS per step; the pure-Go kernels below are its unrolled scalar
// image, with the same butterflies in the same order.
//
// Arithmetic contract: every kernel performs, per state and step, the same
// float32 operations in the same order as the table-driven reference SISO
// (kept as the test oracle, turbo_oracle_test.go):
//
//   - branch metrics g0 = h+p, g1 = h−p, g2 = −h+p, g3 = −h−p with
//     h = (ls+la)·0.5 and p = lp·0.5;
//   - recursion butterflies metric+gamma, max keeping the first operand on
//     a tie (`if m1 > m0`, i.e. VMAXPS with m0 as its second source);
//   - extrinsic (alpha+gamma)+beta per branch, maxima over the 8 states
//     seeded with negInf, then ((m0−m1)−ls)−la.
//
// The recursions are therefore bit-identical to the oracle. The only
// freedom is the order of the 8-way extrinsic maxima: the assembly reduces
// them as a tree, which on an exact tie between +0 and −0 may return the
// other zero — equal under ==, so decisions, iteration counts and payloads
// stay bit-identical (TestTurboF32MatchesOracle, FuzzTurboF32Kernel).
//
// The butterflies below are the fixed LTE trellis written out
// (TestUnrolledTrellisMatchesTables pins the same structure for int16):
//
//	forward  n0=max(a0+g0, a1+g3) n1=max(a2+g2, a3+g1) n2=max(a4+g1, a5+g2)
//	         n3=max(a6+g3, a7+g0) n4=max(a0+g3, a1+g0) n5=max(a2+g1, a3+g2)
//	         n6=max(a4+g2, a5+g1) n7=max(a6+g0, a7+g3)
//	backward b0=max(g0+b0, g3+b4) b1=max(g0+b4, g3+b0) b2=max(g1+b5, g2+b1)
//	         b3=max(g1+b1, g2+b5) b4=max(g1+b2, g2+b6) b5=max(g1+b6, g2+b2)
//	         b6=max(g0+b7, g3+b3) b7=max(g0+b3, g3+b7)

// forwardF32 runs the forward recursion over the k data steps: row t of
// alpha (len ≥ k×8) receives the metrics entering step t. The tail steps'
// alpha rows are never read by the extrinsic, so they are not computed.
func forwardF32(ls, lp, la, alpha []float32, k int) {
	ls, lp, la = ls[:k], lp[:k], la[:k]
	alpha = alpha[:k*turboStates]
	a0, a1, a2, a3 := float32(0), negInf, negInf, negInf
	a4, a5, a6, a7 := negInf, negInf, negInf, negInf
	for t := range ls {
		row := alpha[t*turboStates : t*turboStates+turboStates : t*turboStates+turboStates]
		row[0], row[1], row[2], row[3] = a0, a1, a2, a3
		row[4], row[5], row[6], row[7] = a4, a5, a6, a7
		half := (ls[t] + la[t]) * 0.5
		halfP := lp[t] * 0.5
		g0 := half + halfP
		g1 := half - halfP
		g2 := -half + halfP
		g3 := -half - halfP
		n0 := a0 + g0
		if v := a1 + g3; v > n0 {
			n0 = v
		}
		n1 := a2 + g2
		if v := a3 + g1; v > n1 {
			n1 = v
		}
		n2 := a4 + g1
		if v := a5 + g2; v > n2 {
			n2 = v
		}
		n3 := a6 + g3
		if v := a7 + g0; v > n3 {
			n3 = v
		}
		n4 := a0 + g3
		if v := a1 + g0; v > n4 {
			n4 = v
		}
		n5 := a2 + g1
		if v := a3 + g2; v > n5 {
			n5 = v
		}
		n6 := a4 + g2
		if v := a5 + g1; v > n6 {
			n6 = v
		}
		n7 := a6 + g0
		if v := a7 + g3; v > n7 {
			n7 = v
		}
		a0, a1, a2, a3, a4, a5, a6, a7 = n0, n1, n2, n3, n4, n5, n6, n7
	}
}

// tailBetaF32 runs the backward recursion over the three tail steps of a
// terminated trellis (single terminating branch per state; table-driven,
// not hot) and returns beta[K], the bank the fused pass starts from.
func tailBetaF32(ls, lp []float32, k int) [turboStates]float32 {
	b := [turboStates]float32{0, negInf, negInf, negInf, negInf, negInf, negInf, negInf}
	for t := k + turboTail - 1; t >= k; t-- {
		half := ls[t] * 0.5
		halfP := lp[t] * 0.5
		g := [4]float32{half + halfP, half - halfP, -half + halfP, -half - halfP}
		var nb [turboStates]float32
		for s := range nb {
			nb[s] = g[tailGamma[s]] + b[tailNext[s]]
		}
		b = nb
	}
	return b
}

// backwardF32 is the fused backward recursion + extrinsic over the k data
// steps, t = k−1 down to 0: beta holds beta[k] on entry and beta[0] on
// return; at step t it holds beta[t+1], which together with alpha row t
// gives ext[t] before beta[t] replaces it. A call with k=1 on slices
// offset to step t is one step of the full pass (the tests use that to
// check every beta row).
func backwardF32(ls, lp, la, ext, alpha []float32, beta *[turboStates]float32, k int) {
	ls, lp, la, ext = ls[:k], lp[:k], la[:k], ext[:k]
	alpha = alpha[:k*turboStates]
	b0, b1, b2, b3 := beta[0], beta[1], beta[2], beta[3]
	b4, b5, b6, b7 := beta[4], beta[5], beta[6], beta[7]
	for t := k - 1; t >= 0; t-- {
		row := alpha[t*turboStates : t*turboStates+turboStates : t*turboStates+turboStates]
		r0, r1, r2, r3 := row[0], row[1], row[2], row[3]
		r4, r5, r6, r7 := row[4], row[5], row[6], row[7]
		half := (ls[t] + la[t]) * 0.5
		halfP := lp[t] * 0.5
		g0 := half + halfP
		g1 := half - halfP
		g2 := -half + halfP
		g3 := -half - halfP

		// d=0 branches (state, gamma, successor), scanned in state order.
		m0 := negInf
		if v := r0 + g0 + b0; v > m0 {
			m0 = v
		}
		if v := r1 + g0 + b4; v > m0 {
			m0 = v
		}
		if v := r2 + g1 + b5; v > m0 {
			m0 = v
		}
		if v := r3 + g1 + b1; v > m0 {
			m0 = v
		}
		if v := r4 + g1 + b2; v > m0 {
			m0 = v
		}
		if v := r5 + g1 + b6; v > m0 {
			m0 = v
		}
		if v := r6 + g0 + b7; v > m0 {
			m0 = v
		}
		if v := r7 + g0 + b3; v > m0 {
			m0 = v
		}
		// d=1 branches.
		m1 := negInf
		if v := r0 + g3 + b4; v > m1 {
			m1 = v
		}
		if v := r1 + g3 + b0; v > m1 {
			m1 = v
		}
		if v := r2 + g2 + b1; v > m1 {
			m1 = v
		}
		if v := r3 + g2 + b5; v > m1 {
			m1 = v
		}
		if v := r4 + g2 + b6; v > m1 {
			m1 = v
		}
		if v := r5 + g2 + b2; v > m1 {
			m1 = v
		}
		if v := r6 + g3 + b3; v > m1 {
			m1 = v
		}
		if v := r7 + g3 + b7; v > m1 {
			m1 = v
		}
		ext[t] = (m0 - m1) - ls[t] - la[t]

		// beta[t] from beta[t+1].
		n0 := g0 + b0
		if v := g3 + b4; v > n0 {
			n0 = v
		}
		n1 := g0 + b4
		if v := g3 + b0; v > n1 {
			n1 = v
		}
		n2 := g1 + b5
		if v := g2 + b1; v > n2 {
			n2 = v
		}
		n3 := g1 + b1
		if v := g2 + b5; v > n3 {
			n3 = v
		}
		n4 := g1 + b2
		if v := g2 + b6; v > n4 {
			n4 = v
		}
		n5 := g1 + b6
		if v := g2 + b2; v > n5 {
			n5 = v
		}
		n6 := g0 + b7
		if v := g3 + b3; v > n6 {
			n6 = v
		}
		n7 := g0 + b3
		if v := g3 + b7; v > n7 {
			n7 = v
		}
		b0, b1, b2, b3, b4, b5, b6, b7 = n0, n1, n2, n3, n4, n5, n6, n7
	}
	*beta = [turboStates]float32{b0, b1, b2, b3, b4, b5, b6, b7}
}

// sisoF32 runs one float32 max-log-MAP pass over a terminated constituent
// trellis: ls/lp are systematic/parity LLRs with tails appended (len K+3),
// la the a-priori for the K data steps, ext the extrinsic output, alpha a
// K×8 scratch. vec selects the AVX2 kernels (only when sisoAsm); the result
// is the same either way.
func sisoF32(ls, lp, la, ext, alpha []float32, k int, vec bool) {
	if vec {
		forwardF32AVX2(&ls[0], &lp[0], &la[0], &alpha[0], k)
		beta := tailBetaF32(ls, lp, k)
		backwardF32AVX2(&ls[0], &lp[0], &la[0], &ext[0], &alpha[0], &beta, k)
		return
	}
	forwardF32(ls, lp, la, alpha, k)
	beta := tailBetaF32(ls, lp, k)
	backwardF32(ls, lp, la, ext, alpha, &beta, k)
}
