package phy

// sisoOracle is the table-driven float32 max-log-MAP SISO the production
// kernels (turbo_f32.go and its AVX2 twin) must reproduce bit for bit: one
// pass over a terminated constituent trellis with ls/lp the systematic and
// parity LLRs plus tails (len K+3), la the a-priori LLR for the K data
// steps, ext the extrinsic output. alpha and beta are (K+4)×8 scratch and
// hold every forward/backward metric row on return — the rows the kernel
// tests compare against.
//
// The recursions are destination-oriented over the two-predecessor trellis
// tables, the four branch metrics (±systematic ±parity) computed once per
// step; every max keeps its first operand on a tie (`if m1 > m0`), and the
// extrinsic maxima are sequential scans from negInf.
func sisoOracle(ls, lp, la, ext, alpha, beta []float32, k int) {
	steps := k + turboTail

	// gammas[d<<1|parity] for the current step.
	var g [4]float32

	// Forward recursion. alpha[0] = {0, -inf...}: encoder starts in state 0.
	alpha[0] = 0
	for s := 1; s < turboStates; s++ {
		alpha[s] = negInf
	}
	for t := 0; t < k; t++ {
		half := (ls[t] + la[t]) * 0.5
		halfP := lp[t] * 0.5
		g[0] = half + halfP
		g[1] = half - halfP
		g[2] = -half + halfP
		g[3] = -half - halfP
		row := alpha[t*turboStates : t*turboStates+turboStates : t*turboStates+turboStates]
		next := alpha[(t+1)*turboStates : (t+1)*turboStates+turboStates : (t+1)*turboStates+turboStates]
		for ns := 0; ns < turboStates; ns++ {
			m0 := row[predState[ns][0]] + g[predGamma[ns][0]]
			m1 := row[predState[ns][1]] + g[predGamma[ns][1]]
			if m1 > m0 {
				m0 = m1
			}
			next[ns] = m0
		}
	}
	// Tail steps: single terminating branch per state, source-oriented.
	for t := k; t < steps; t++ {
		half := ls[t] * 0.5
		halfP := lp[t] * 0.5
		g[0] = half + halfP
		g[1] = half - halfP
		g[2] = -half + halfP
		g[3] = -half - halfP
		row := alpha[t*turboStates : (t+1)*turboStates]
		next := alpha[(t+1)*turboStates : (t+2)*turboStates]
		for s := range next {
			next[s] = negInf
		}
		for s := 0; s < turboStates; s++ {
			m := row[s] + g[tailGamma[s]]
			if ns := tailNext[s]; m > next[ns] {
				next[ns] = m
			}
		}
	}

	// Backward recursion. Terminated trellis ⇒ beta[steps] = {0, -inf...}.
	base := steps * turboStates
	beta[base] = 0
	for s := 1; s < turboStates; s++ {
		beta[base+s] = negInf
	}
	for t := steps - 1; t >= k; t-- {
		half := ls[t] * 0.5
		halfP := lp[t] * 0.5
		g[0] = half + halfP
		g[1] = half - halfP
		g[2] = -half + halfP
		g[3] = -half - halfP
		row := beta[t*turboStates : (t+1)*turboStates]
		next := beta[(t+1)*turboStates : (t+2)*turboStates]
		for s := 0; s < turboStates; s++ {
			row[s] = g[tailGamma[s]] + next[tailNext[s]]
		}
	}
	for t := k - 1; t >= 0; t-- {
		half := (ls[t] + la[t]) * 0.5
		halfP := lp[t] * 0.5
		g[0] = half + halfP
		g[1] = half - halfP
		g[2] = -half + halfP
		g[3] = -half - halfP
		row := beta[t*turboStates : t*turboStates+turboStates : t*turboStates+turboStates]
		next := beta[(t+1)*turboStates : (t+1)*turboStates+turboStates : (t+1)*turboStates+turboStates]
		for s := 0; s < turboStates; s++ {
			m0 := g[gammaIdx0[s]] + next[nextD0[s]]
			m1 := g[gammaIdx1[s]] + next[nextD1[s]]
			if m1 > m0 {
				m0 = m1
			}
			row[s] = m0
		}
	}

	// LLR and extrinsic for the K data steps.
	for t := 0; t < k; t++ {
		arow := alpha[t*turboStates : t*turboStates+turboStates : t*turboStates+turboStates]
		brow := beta[(t+1)*turboStates : (t+1)*turboStates+turboStates : (t+1)*turboStates+turboStates]
		half := (ls[t] + la[t]) * 0.5
		halfP := lp[t] * 0.5
		g[0] = half + halfP
		g[1] = half - halfP
		g[2] = -half + halfP
		g[3] = -half - halfP
		m0, m1 := negInf, negInf
		for s := 0; s < turboStates; s++ {
			am := arow[s]
			if v := am + g[gammaIdx0[s]] + brow[nextD0[s]]; v > m0 {
				m0 = v
			}
			if v := am + g[gammaIdx1[s]] + brow[nextD1[s]]; v > m1 {
				m1 = v
			}
		}
		ext[t] = (m0 - m1) - ls[t] - la[t]
	}
}

// oracleDecodeF32 is TurboDecoder.Decode for KernelFloat32 with every SISO
// pass run by sisoOracle: the same demultiplexing, iteration schedule,
// erasure rule and early check. It returns the hard decisions, iterations
// used and erasure count the production decoder must reproduce.
func oracleDecodeF32(k int, ld0, ld1, ld2 []float32, maxIter int, check func([]byte) bool) (hard []byte, iters, erasures int) {
	q, err := NewQPPInterleaver(k)
	if err != nil {
		panic(err)
	}
	steps := k + turboTail
	ls1, lp1 := make([]float32, steps), make([]float32, steps)
	ls2, lp2 := make([]float32, steps), make([]float32, steps)
	apri, ext1, ext2 := make([]float32, k), make([]float32, k), make([]float32, k)
	alpha := make([]float32, (steps+1)*turboStates)
	beta := make([]float32, (steps+1)*turboStates)
	hard = make([]byte, k)

	copy(ls1[:k], ld0[:k])
	copy(lp1[:k], ld1[:k])
	for i := 0; i < k; i++ {
		ls2[i] = ld0[q.Perm(i)]
	}
	copy(lp2[:k], ld2[:k])
	ls1[k+0], lp1[k+0] = ld0[k+0], ld1[k+0]
	ls1[k+1], lp1[k+1] = ld2[k+0], ld0[k+1]
	ls1[k+2], lp1[k+2] = ld1[k+1], ld2[k+1]
	ls2[k+0], lp2[k+0] = ld0[k+2], ld1[k+2]
	ls2[k+1], lp2[k+1] = ld2[k+2], ld0[k+3]
	ls2[k+2], lp2[k+2] = ld1[k+3], ld2[k+3]

	for it := 0; it < maxIter; it++ {
		sisoOracle(ls1, lp1, apri, ext1, alpha, beta, k)
		for i := 0; i < k; i++ {
			apri[i] = ext1[q.Perm(i)]
		}
		sisoOracle(ls2, lp2, apri, ext2, alpha, beta, k)
		for i := 0; i < k; i++ {
			apri[q.Perm(i)] = ext2[i]
		}
		iters = it + 1
		erasures = 0
		for i := 0; i < k; i++ {
			l := ls1[i] + ext1[i] + apri[i]
			if l >= 0 {
				hard[i] = 0
			} else {
				hard[i] = 1
			}
			if l == 0 {
				erasures++
			}
		}
		if erasures == 0 && check != nil && check(hard) {
			break
		}
	}
	return hard, iters, erasures
}
