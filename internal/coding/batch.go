package coding

import "math/bits"

// Lockstep batch decoder. A BatchWorkspace lays B frames' channel LLRs out
// as structure-of-arrays planes — plane[t*lanes+l] holds frame l's value at
// trellis position t — and advances all frames one trellis step at a time,
// so the per-step branch-metric table, the output-table indexing, and the
// max*/comb combines amortize across the batch and run through the
// vectorized row primitives of combine.go.
//
// The batch path is contractually bit-identical to the single-frame
// decoders: for every job, DecodeBCJRBatch produces exactly the bytes and
// float bits of Workspace.DecodeBCJR, and DecodeViterbiBatch exactly those
// of Workspace.DecodeViterbi (NaN LLR inputs may yield NaN outputs whose
// payload bits differ; they compare equal as NaNs). The equivalence suite
// in batch_test.go and FuzzBatchDecodeMatchesSingle pin this. Exact log-MAP
// remains the default everywhere; the optional Quantized flag enables a
// float32 max-log fast path that trades exactness for speed and is never
// used by the experiment harnesses.
//
// Jobs are grouped by trellis length (frames with equal step counts run in
// lockstep; mixed-length batches form one group per length) and each group
// is capped at maxBatchLanes lanes. On AVX2/AVX-512 hardware a LogMAP group
// is padded to a multiple of the kernel width (groupKernel), so every lane
// runs on the vector kernels; the scalar walk remains for MaxLog, for
// non-AVX2 hardware, and for the rare lanes a kernel flags for fixup.

const maxBatchLanes = 64

// appBlockT is how many trellis steps the APP block kernel interleaves,
// and so how many rows each post-crossing block buffer holds (plus one).
const appBlockT = 8

// BatchJob describes one frame's decode within a batch: the rate-1/2
// channel LLR lattice (after DepunctureLLR for punctured rates; short
// slices are zero-extended exactly like the single-frame decoders) and the
// number of information bits to recover.
type BatchJob struct {
	LLRs  []float64
	NInfo int
}

// BatchResult holds one job's outputs. Both slices alias the workspace and
// are valid until its next Decode call. LLR is nil for Viterbi decodes.
type BatchResult struct {
	Info []byte
	LLR  []float64
}

// BatchWorkspace holds the structure-of-arrays planes of the lockstep batch
// decoder. Like Workspace it is owned by one goroutine at a time, performs
// zero heap allocations in steady state once warm, and reuse is
// contractually invisible in its outputs.
type BatchWorkspace struct {
	// Quantized enables the float32 max-log fast path for
	// DecodeBCJRBatch(..., MaxLog). It is an approximate mode: outputs are
	// NOT bit-identical to the exact decoders and no experiment harness
	// uses it. LogMAP decodes ignore the flag.
	Quantized bool

	llrP   []float64 // [2*steps][lanes] transposed channel LLRs
	planes []float64 // α and β rows, [numStates][lanes] each (see decodeBCJRGroup)
	bmP    []float64 // [8][lanes] fwd+bwd per-step branch metric rows
	bmBlk  []float64 // [appBlockT*4][lanes] APP block branch metric rows
	numBlk []float64 // [appBlockT][lanes] APP accumulators, input 1
	denBlk []float64 // [appBlockT][lanes] APP accumulators, input 0
	appAcc []uint64  // [appBlockT*17] block kernel acc records + fix words

	metricP []float64 // [numStates][lanes] Viterbi path metrics
	nextP   []float64 // [numStates][lanes]
	survP   []uint8   // [steps][numStates][lanes] Viterbi traceback

	qMetric []float32 // quantized fast path planes
	qNext   []float32
	qAlpha  []float32
	qBetaA  []float32
	qBetaB  []float32
	qBM     []float32
	qNum    []float32
	qDen    []float32

	maxP []float64  // [lanes] normalizeLanes per-lane maxima
	fixF [64]uint64 // forward-leg fixup lane masks from the step kernels
	fixB [64]uint64 // backward-leg fixup lane masks

	infoFlat []byte
	llrFlat  []float64
	results  []BatchResult
	order    []int
	padded   []int // a padded group's lanes (see groupKernel)
}

// grow32 is growF for float32 slices.
func grow32(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
}

// prepare sizes the per-job output buffers and sorts job indices by trellis
// length so equal-length frames run in lockstep. The sort is a stable
// insertion sort to stay allocation-free (batches are small).
func (w *BatchWorkspace) prepare(jobs []BatchJob, withLLR bool) {
	tot := 0
	for i := range jobs {
		tot += jobs[i].NInfo
	}
	w.infoFlat = growB(w.infoFlat, tot)
	if withLLR {
		w.llrFlat = growF(w.llrFlat, tot)
	}
	if cap(w.results) < len(jobs) {
		w.results = make([]BatchResult, len(jobs))
	}
	w.results = w.results[:len(jobs)]
	off := 0
	for i := range jobs {
		n := jobs[i].NInfo
		r := BatchResult{Info: w.infoFlat[off : off+n : off+n]}
		if withLLR {
			r.LLR = w.llrFlat[off : off+n : off+n]
		}
		w.results[i] = r
		off += n
	}
	if cap(w.order) < len(jobs) {
		w.order = make([]int, len(jobs))
	}
	w.order = w.order[:len(jobs)]
	for i := range w.order {
		w.order[i] = i
	}
	for i := 1; i < len(w.order); i++ {
		j := w.order[i]
		k := i - 1
		for k >= 0 && jobs[w.order[k]].NInfo > jobs[j].NInfo {
			w.order[k+1] = w.order[k]
			k--
		}
		w.order[k+1] = j
	}
}

// groups invokes fn for each maximal run of equal-length jobs (chunked at
// maxBatchLanes) in w.order.
func (w *BatchWorkspace) groups(jobs []BatchJob, fn func(lanes []int)) {
	for lo := 0; lo < len(w.order); {
		hi := lo + 1
		n := jobs[w.order[lo]].NInfo
		for hi < len(w.order) && jobs[w.order[hi]].NInfo == n {
			hi++
		}
		for ; lo < hi; lo += maxBatchLanes {
			end := lo + maxBatchLanes
			if end > hi {
				end = hi
			}
			fn(w.order[lo:end])
		}
		lo = hi
	}
}

// transposeLLRs fills w.llrP with the group's LLRs in [t][lane] order,
// zero-extending short inputs exactly like padLLRs.
func (w *BatchWorkspace) transposeLLRs(jobs []BatchJob, lanes []int, steps int) {
	L := len(lanes)
	w.llrP = growF(w.llrP, 2*steps*L)
	llrP := w.llrP
	for l, ji := range lanes {
		src := jobs[ji].LLRs
		if len(src) > 2*steps {
			src = src[:2*steps]
		}
		for t, v := range src {
			llrP[t*L+l] = v
		}
		for t := len(src); t < 2*steps; t++ {
			llrP[t*L+l] = 0
		}
	}
}

// stepBM fills the four branch-metric rows for trellis step t with exactly
// the branchMetrics arithmetic, lane by lane.
func stepBM(bmP, llrP []float64, t, L int) {
	r0 := llrP[2*t*L : (2*t+1)*L]
	r1 := llrP[(2*t+1)*L : (2*t+2)*L]
	b0 := bmP[0*L : 1*L]
	b1 := bmP[1*L : 2*L]
	b2 := bmP[2*L : 3*L]
	b3 := bmP[3*L : 4*L]
	for l := 0; l < L; l++ {
		l0, l1 := r0[l], r1[l]
		base := -0.5 * (l0 + l1)
		b0[l] = base
		b1[l] = base + l1
		b2[l] = base + l0
		b3[l] = (base + l0) + l1
	}
}

// fillRow sets every element of a metric row to the sentinel except state 0,
// which anchors the terminated trellis at zero.
func anchorRow(row []float64, L int) {
	for i := range row {
		row[i] = bcjrNegInf
	}
	for l := 0; l < L; l++ {
		row[l] = 0
	}
}

func sentinelRow(row []float64) {
	for i := range row {
		row[i] = bcjrNegInf
	}
}

// normalizeLanes applies the single-frame normalize to each lane of a
// [numStates][lanes] plane row: subtract the lane's maximum unless the lane
// is entirely sentinel. Full 4-lane groups run through the vector kernel on
// AVX2 hardware (bit-identical; normalization is mode-independent
// arithmetic, so both BCJR modes use it); a ragged tail — only MaxLog
// groups have one there, since LogMAP groups are padded to the vector
// width — and non-AVX2 configurations in full run the scalar passes with
// the per-lane maxima staged in w.maxP. Per lane the comparison and
// subtraction order matches the single-frame normalize exactly.
func (w *BatchWorkspace) normalizeLanes(plane []float64, L int) {
	lo := 0
	if hasAVX512Jacobian {
		if nv := L &^ 7; nv > 0 {
			normalizeLanesAVX512(&plane[0], nv, L*8)
			lo = nv
		}
	}
	if hasFastJacobian {
		if nv := (L - lo) &^ 3; nv > 0 {
			normalizeLanesAVX2(&plane[lo], nv, L*8)
			lo += nv
		}
	}
	if lo == L {
		return
	}
	w.maxP = growF(w.maxP, L)
	maxP := w.maxP
	copy(maxP[lo:], plane[lo:L])
	for s := 1; s < numStates; s++ {
		row := plane[s*L : (s+1)*L : (s+1)*L]
		for l := lo; l < L; l++ {
			if x := row[l]; x > maxP[l] {
				maxP[l] = x
			}
		}
	}
	for s := 0; s < numStates; s++ {
		row := plane[s*L : (s+1)*L : (s+1)*L]
		for l := lo; l < L; l++ {
			if x := row[l]; x > bcjrNegInf && !(maxP[l] <= bcjrNegInf) {
				row[l] = x - maxP[l]
			}
		}
	}
}

// groupKernel picks how a group of L frames runs: log-MAP on AVX2 hardware
// runs every lane on the vector kernels (the 8-lane AVX-512 ones when
// present and L > 4), with L padded up to a multiple of the kernel width;
// MaxLog and non-AVX2 hardware run all L lanes through the scalar walk.
// Padding lanes decode copies of a real frame and their outputs are
// discarded; lanes are independent, so padding cannot change a real lane's
// bits. It pays at every ragged width BenchmarkDecodeBCJRWidth measures on
// an AVX-512 Xeon: per frame, 1 → 4 lanes is 10–20 % faster, 2–3 → 4,
// 5–7 → 8 and 12–13 → 16 are 2–3× faster, and 9 → 16 breaks even.
func groupKernel(L int, mode BCJRMode) (width int, vec, wide bool) {
	switch {
	case mode != LogMAP:
		return L, false, false
	case hasAVX512Jacobian && L > 4:
		return (L + 7) &^ 7, true, true
	case hasFastJacobian:
		return (L + 3) &^ 3, true, false
	}
	return L, false, false
}

// DecodeBCJRBatch decodes every job with the BCJR algorithm in lockstep and
// returns one result per job, in job order. Outputs are bit-identical to
// calling Workspace.DecodeBCJR per job. Results alias the workspace and are
// valid until the next Decode call on it.
func (w *BatchWorkspace) DecodeBCJRBatch(jobs []BatchJob, mode BCJRMode) []BatchResult {
	if w.Quantized && mode == MaxLog {
		return w.decodeBCJRBatchQuantized(jobs)
	}
	w.prepare(jobs, true)
	w.groups(jobs, func(lanes []int) {
		w.decodeBCJRGroup(jobs, lanes, mode)
	})
	return w.results
}

// bcjrGroup is one lockstep BCJR group's geometry and kernel choice.
type bcjrGroup struct {
	L, rowSz  int
	vec, wide bool // see groupKernel
	mode      BCJRMode
	nInfo     int
	lanes     []int // the group's real jobs, lane l = lanes[l]
}

// decodeBCJRGroup decodes one equal-length group. The forward (α) and
// backward (β) recursions advance together, one dual step per trellis step,
// and meet in the middle: until they cross, each stores its rows (α for the
// first half of the trellis, β for the second); after they cross, each
// step's fresh row pairs with the other recursion's stored rows, so the APP
// outputs are produced on the fly from small block buffers. The stored
// planes cover half the trellis each, one trellis' worth in total.
func (w *BatchWorkspace) decodeBCJRGroup(jobs []BatchJob, lanes []int, mode BCJRMode) {
	g := bcjrGroup{lanes: lanes, mode: mode, nInfo: jobs[lanes[0]].NInfo}
	var width int
	width, g.vec, g.wide = groupKernel(len(lanes), mode)
	if width > len(lanes) {
		w.padded = append(w.padded[:0], lanes...)
		for len(w.padded) < width {
			w.padded = append(w.padded, lanes[0])
		}
		lanes = w.padded
	}
	L := len(lanes)
	g.L, g.rowSz = L, numStates*L
	steps := g.nInfo + TailBits
	w.transposeLLRs(jobs, lanes, steps)
	w.bmP = growF(w.bmP, 8*L)

	// Plane layout, in rows of rowSz: α[0..half], β[steps-half..steps], and
	// two appBlockT+1-row block buffers for the rows computed after the
	// recursions cross. The old planes are dropped before a larger set is
	// allocated, so a worker never holds two generations at once.
	half := (steps + 1) / 2
	rowSz := g.rowSz
	need := (2*(half+1) + 2*(appBlockT+1)) * rowSz
	if cap(w.planes) < need {
		w.planes = nil
		w.planes = make([]float64, need)
	}
	planes := w.planes[:need]
	alphaP := planes[:(half+1)*rowSz]
	betaP := planes[(half+1)*rowSz : 2*(half+1)*rowSz] // row r is β[steps-half+r]
	fwdBlk := planes[2*(half+1)*rowSz : (2*(half+1)+appBlockT+1)*rowSz]
	bwdBlk := planes[(2*(half+1)+appBlockT+1)*rowSz:]
	row := func(p []float64, r int) []float64 { return p[r*rowSz : (r+1)*rowSz : (r+1)*rowSz] }

	w.bmBlk = growF(w.bmBlk, appBlockT*4*L)
	w.numBlk = growF(w.numBlk, appBlockT*L)
	w.denBlk = growF(w.denBlk, appBlockT*L)
	if cap(w.appAcc) < appBlockT*17 {
		w.appAcc = make([]uint64, appBlockT*17)
	}
	w.appAcc = w.appAcc[:appBlockT*17]

	// Phase 1: the first half steps of each recursion, storing every row.
	// Each recursion's per-step work is a serial dependency, but the two
	// recursions are independent of each other, so pairing them keeps twice
	// as many Jacobian chains in the reorder window.
	anchorRow(row(alphaP, 0), L)
	anchorRow(row(betaP, half), L)
	for i := 0; i < half; i++ {
		w.dualStep(&g, row(alphaP, i+1), row(alphaP, i), row(betaP, half-i-1), row(betaP, half-i), i, steps-1-i)
	}
	// Steps whose α and β rows are both stored.
	if lo, hi := max(0, steps-half-1), min(half, g.nInfo); lo < hi {
		w.appBlock(&g, alphaP[lo*rowSz:], betaP[(lo+1-(steps-half))*rowSz:], lo, hi-lo)
	}

	// Phase 2: the remaining steps-half steps of each recursion. The forward
	// block buffer holds α[t0..t0+n] (row 0 carried over from the previous
	// block) and pairs with stored β; the backward buffer holds β rows
	// top-down (row appBlockT is the carried-over source) and pairs with
	// stored α. Steps with t >= nInfo decode tail bits and have no output.
	copy(row(fwdBlk, 0), row(alphaP, half))
	copy(row(bwdBlk, appBlockT), row(betaP, 0))
	for i0 := 0; i0 < steps-half; i0 += appBlockT {
		n := min(appBlockT, steps-half-i0)
		t0 := half + i0              // first forward step of the block
		tb0 := steps - half - 1 - i0 // first backward step of the block
		for j := 0; j < n; j++ {
			w.dualStep(&g, row(fwdBlk, j+1), row(fwdBlk, j), row(bwdBlk, appBlockT-1-j), row(bwdBlk, appBlockT-j), t0+j, tb0-j)
		}
		if ka := min(n, g.nInfo-t0); ka > 0 {
			w.appBlock(&g, fwdBlk, betaP[(t0+1-(steps-half))*rowSz:], t0, ka)
		}
		// The backward block produced β[tb0-n+1..tb0], which serve the
		// steps t in [tb0-n, tb0); β[0] serves none.
		if lo, hi := max(0, tb0-n), min(tb0, g.nInfo); lo < hi {
			w.appBlock(&g, alphaP[lo*rowSz:], bwdBlk[(appBlockT-tb0+lo)*rowSz:], lo, hi-lo)
		}
		copy(row(fwdBlk, 0), row(fwdBlk, n))
		copy(row(bwdBlk, appBlockT), row(bwdBlk, appBlockT-n))
	}
}

// dualStep runs forward step t (aCur → aNxt) and backward step tb
// (bSrc → bDst), each with its branch metrics, then normalizes both rows.
// Each step is one whole-step table walk, vector or scalar; both rebuild
// every destination row, so no sentinel initialization pass is needed.
func (w *BatchWorkspace) dualStep(g *bcjrGroup, aNxt, aCur, bDst, bSrc []float64, t, tb int) {
	L := g.L
	bmF := w.bmP[0*L : 4*L : 4*L]
	bmB := w.bmP[4*L : 8*L : 8*L]
	stepBM(bmF, w.llrP, t, L)
	stepBM(bmB, w.llrP, tb, L)
	if g.vec {
		var fixed uint64
		if g.wide {
			fixed = stepCombineDualAVX512(&aNxt[0], &aCur[0], &bmF[0], &bDst[0], &bSrc[0], &bmB[0],
				&fwdStepTable[0], &bwdStepTable[0], &w.fixF[0], &w.fixB[0], L, L*8)
		} else {
			fixed = stepCombineDualAVX2(&aNxt[0], &aCur[0], &bmF[0], &bDst[0], &bSrc[0], &bmB[0],
				&fwdStepTable[0], &bwdStepTable[0], &w.fixF[0], &w.fixB[0], L, L*8)
		}
		if fixed != 0 {
			w.applyStepFixups(&w.fixF, aNxt, aCur, bmF, &fwdStepTable, L, g.mode)
			w.applyStepFixups(&w.fixB, bDst, bSrc, bmB, &bwdStepTable, L, g.mode)
		}
	} else {
		stepCombineLanes(aNxt, aCur, bmF, &fwdStepTable, L, g.mode)
		stepCombineLanes(bDst, bSrc, bmB, &bwdStepTable, L, g.mode)
	}
	w.normalizeLanes(aNxt, L)
	w.normalizeLanes(bDst, L)
}

// appBlock computes the APP outputs of the ka (at most appBlockT)
// consecutive steps t0.. into the group's results: alpha holds α[t0+j] at
// row j and beta holds β[t0+j+1] at row j. Each step's maxStar fold is
// serial by construction (the fold order is observable in the output
// bits), but the steps are mutually independent, so the block kernel
// interleaves them and hides the chain latency.
func (w *BatchWorkspace) appBlock(g *bcjrGroup, alpha, beta []float64, t0, ka int) {
	L, rowSz := g.L, g.rowSz
	numBlk, denBlk := w.numBlk, w.denBlk
	for j := 0; j < ka; j++ {
		stepBM(w.bmBlk[j*4*L:(j+1)*4*L:(j+1)*4*L], w.llrP, t0+j, L)
	}
	recW := 9 // acc record: {den[4], num[4], fix}
	if g.vec {
		if g.wide {
			recW = 17 // {den[8], num[8], fix}
			stepAPPBlockAVX512(&numBlk[0], &denBlk[0], &alpha[0], &beta[0], &w.bmBlk[0], &appStepTable[0], &w.appAcc[0], L, L*8, ka)
		} else {
			stepAPPBlockAVX2(&numBlk[0], &denBlk[0], &alpha[0], &beta[0], &w.bmBlk[0], &appStepTable[0], &w.appAcc[0], L, L*8, ka)
		}
	}
	for j := 0; j < ka; j++ {
		t := t0 + j
		at := alpha[j*rowSz : (j+1)*rowSz : (j+1)*rowSz]
		bt := beta[j*rowSz : (j+1)*rowSz : (j+1)*rowSz]
		bmj := w.bmBlk[j*4*L : (j+1)*4*L : (j+1)*4*L]
		if g.vec {
			mask := w.appAcc[j*recW+recW-1]
			for mask != 0 {
				l := bits.TrailingZeros64(mask)
				mask &^= 1 << uint(l)
				numBlk[j*L+l], denBlk[j*L+l] = appLane(at, bt, bmj, L, l, g.mode)
			}
		} else {
			for l := 0; l < L; l++ {
				numBlk[j*L+l], denBlk[j*L+l] = appLane(at, bt, bmj, L, l, g.mode)
			}
		}
		for l, ji := range g.lanes {
			r := &w.results[ji]
			llr := numBlk[j*L+l] - denBlk[j*L+l]
			r.LLR[t] = llr
			if llr >= 0 {
				r.Info[t] = 1
			} else {
				r.Info[t] = 0
			}
		}
	}
}

// DecodeViterbiBatch decodes every job with the soft-decision Viterbi
// decoder in lockstep. Outputs are bit-identical to calling
// Workspace.DecodeViterbi per job; Result.LLR is nil (Viterbi yields no
// per-bit confidences). Results alias the workspace and are valid until the
// next Decode call on it.
func (w *BatchWorkspace) DecodeViterbiBatch(jobs []BatchJob) []BatchResult {
	w.prepare(jobs, false)
	w.groups(jobs, func(lanes []int) {
		w.decodeViterbiGroup(jobs, lanes)
	})
	return w.results
}

func (w *BatchWorkspace) decodeViterbiGroup(jobs []BatchJob, lanes []int) {
	L := len(lanes)
	nInfo := jobs[lanes[0]].NInfo
	steps := nInfo + TailBits
	tr := theTrellis
	w.transposeLLRs(jobs, lanes, steps)
	llrP := w.llrP
	w.bmP = growF(w.bmP, 4*L)
	bmP := w.bmP

	rowSz := numStates * L
	w.metricP = growF(w.metricP, rowSz)
	w.nextP = growF(w.nextP, rowSz)
	w.survP = growB(w.survP, steps*rowSz)
	metric, next := w.metricP, w.nextP
	surv := w.survP
	clear(surv)
	anchorRow(metric, L)
	for t := 0; t < steps; t++ {
		stepBM(bmP, llrP, t, L)
		row := surv[t*rowSz : (t+1)*rowSz : (t+1)*rowSz]
		sentinelRow(next)
		for s := 0; s < numStates; s++ {
			mrow := metric[s*L : (s+1)*L : (s+1)*L]
			for u := 0; u < 2; u++ {
				ns := int(tr.nextState[s][u])
				o := int(tr.output[s][u])
				nrow := next[ns*L : (ns+1)*L : (ns+1)*L]
				brow := bmP[o*L : (o+1)*L : (o+1)*L]
				srow := row[ns*L : (ns+1)*L : (ns+1)*L]
				for l := 0; l < L; l++ {
					m := mrow[l]
					if m <= bcjrNegInf {
						continue
					}
					if cand := m + brow[l]; cand > nrow[l] {
						nrow[l] = cand
						srow[l] = uint8(s)
					}
				}
			}
		}
		metric, next = next, metric
	}
	w.metricP, w.nextP = metric, next
	// Per-lane traceback from state 0.
	for l, ji := range lanes {
		info := w.results[ji].Info
		state := uint8(0)
		for t := steps - 1; t >= 0; t-- {
			if t < nInfo {
				info[t] = state >> (Constraint - 2) & 1
			}
			state = surv[t*rowSz+int(state)*L+l]
		}
	}
}
