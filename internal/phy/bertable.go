package phy

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"softrate/internal/channel"
	"softrate/internal/ofdm"
	"softrate/internal/rate"
	"softrate/internal/softphy"
)

// BERModel is an empirical characterization of this PHY: for each rate and
// each SNR grid point it records the post-decoder bit error rate (measured
// via SoftPHY hints, so it is meaningful even deep below one error per
// frame) and the frame error-event rate λ (errors per information bit,
// from measured frame error rates, so P(deliver an N-bit frame) = e^{-λN}).
//
// It plays the role the authors' software-radio packet traces play in
// their ns-3 evaluation (§6.1): a faithful statistical summary of the real
// PHY that the network simulator can query cheaply. It is produced by
// Calibrate — Monte Carlo over the actual encode/channel/BCJR chain — and
// a pre-generated copy (DefaultBERModel) is embedded so simulations start
// instantly; `go run ./cmd/calibrate` regenerates it.
type BERModel struct {
	// SNRdB is the calibration grid (ascending).
	SNRdB []float64
	// BER[rateIdx][k] is the mean post-decode BER at SNRdB[k].
	BER [][]float64
	// Lambda[rateIdx][k] is the error-event rate per info bit at
	// SNRdB[k]; 0 means no frame errors were observed.
	Lambda [][]float64

	// logOnce guards logBER and logLambda: the natural logs of the BER and
	// Lambda entries, floored as interp requires, computed on the first
	// query. A model is read-only once queried (the tables are shared by
	// every worker of an experiment), so the logs never go stale.
	logOnce           sync.Once
	logBER, logLambda [][]float64
}

// CalibrationConfig controls Calibrate.
type CalibrationConfig struct {
	// PHY is the PHY configuration to characterize.
	PHY Config
	// Rates to calibrate (index order defines BERModel rows).
	Rates []rate.Rate
	// SNRdB grid points.
	SNRdB []float64
	// FramesPerPoint is the Monte Carlo depth (default 8).
	FramesPerPoint int
	// PayloadBytes is the probe frame size (default 250).
	PayloadBytes int
	// Seed makes the calibration reproducible.
	Seed int64
	// Workers bounds the decode-stage parallelism; zero or negative means
	// one worker per CPU, matching the experiment engine. The calibration
	// is byte-identical at any worker count: payloads and receiver noise
	// are drawn serially from the master stream (detection is pure, so
	// each frame's consumption is known up front) and only the pure decode
	// work fans out.
	Workers int
	// DecodeBatch sets how many frames each worker claims and decodes as
	// one lockstep batch (QueueReceive/FlushReceptions). Zero means the
	// default of 8; negative disables batching (per-frame ReceiveWS).
	// Results are bit-identical at every setting — the batch decoder is
	// exact — so the knob trades nothing but speed.
	DecodeBatch int
}

// DefaultCalibrationGrid returns the standard grid: -2..30 dB in 1 dB
// steps.
func DefaultCalibrationGrid() []float64 {
	var g []float64
	for s := -2.0; s <= 30.0; s++ {
		g = append(g, s)
	}
	return g
}

// replayNorms replays a pre-drawn slice of normal variates; it panics if a
// consumer asks for more than were predicted, which would mean the draw
// prediction (Transmission.NoiseDraws) diverged from the receive chain.
type replayNorms struct {
	v []float64
	i int
}

func (r *replayNorms) NormFloat64() float64 {
	x := r.v[r.i]
	r.i++
	return x
}

// eachWithWorkspace runs fn(ws, i) for every i in [0, n) across a worker
// pool, each worker owning one Workspace. workers <= 0 means one per CPU.
// It mirrors the experiment engine's MapWith contract (indexed claims,
// per-worker scratch, worker-count-independent results) without making the
// low-level PHY package depend on experiment-harness infrastructure.
func eachWithWorkspace(workers, n int, fn func(ws *Workspace, i int)) {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		ws := NewWorkspace()
		for i := 0; i < n; i++ {
			fn(ws, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			ws := NewWorkspace()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(ws, i)
			}
		}()
	}
	wg.Wait()
}

// calFrame is one pre-generated calibration frame: everything Receive
// needs, with its randomness already drawn from the master stream.
type calFrame struct {
	tx       *Transmission
	gains    []complex128
	ivar     []float64
	noise    []float64
	detected bool
}

// calResult is the per-frame summary the aggregation stage folds in master
// order.
type calResult struct {
	detected  bool
	errored   bool // undetected or any payload bit error
	logEstBER float64
	nBits     int
}

// calSummarize folds one decoded calibration frame into the per-frame
// summary the serial aggregation stage consumes.
func calSummarize(rx *Reception, f calFrame) calResult {
	res := calResult{
		detected: rx.Detected,
		errored:  !rx.Detected || rx.BitErrors > 0,
		nBits:    len(f.tx.InfoBits()),
	}
	if rx.Detected {
		res.logEstBER = math.Log(math.Max(softphy.FrameBER(rx.Hints), 1e-12))
	} else {
		res.logEstBER = math.Log(0.4)
	}
	return res
}

// Calibrate measures the PHY by Monte Carlo: constant-SNR AWGN channel,
// real encode/decode chain, hint-based BER estimation.
//
// The pipeline is two-stage so the expensive decodes parallelize without
// perturbing the sequential master PRNG: a serial pass draws each frame's
// payload and receiver noise (preamble detection is pure, so the exact
// number of variates a frame consumes is known before decoding it), then
// the decode stage fans the frames across cc.Workers goroutines, each with
// its own Workspace, replaying the pre-drawn noise. Results are aggregated
// in frame order, so the output is byte-identical at any worker count —
// including to the historical fully-serial implementation.
func Calibrate(cc CalibrationConfig) *BERModel {
	if cc.FramesPerPoint <= 0 {
		cc.FramesPerPoint = 8
	}
	if cc.PayloadBytes <= 0 {
		cc.PayloadBytes = 250
	}
	if len(cc.SNRdB) == 0 {
		cc.SNRdB = DefaultCalibrationGrid()
	}
	if len(cc.Rates) == 0 {
		cc.Rates = rate.Evaluation()
	}
	rng := rand.New(rand.NewSource(cc.Seed))
	m := &BERModel{SNRdB: append([]float64{}, cc.SNRdB...)}
	T := cc.PHY.Mode.SymbolTime()
	for _, r := range cc.Rates {
		// Stage 1 (serial, owns the master rng): generate every frame of
		// this rate row. One row at a time bounds the noise buffers held
		// in flight to a few dozen megabytes.
		frames := make([]calFrame, 0, len(cc.SNRdB)*cc.FramesPerPoint)
		for _, snr := range cc.SNRdB {
			model := channel.NewStaticModel(snr, nil)
			for i := 0; i < cc.FramesPerPoint; i++ {
				payload := make([]byte, cc.PayloadBytes)
				rng.Read(payload)
				tx := Transmit(cc.PHY, Frame{Header: []byte{1, 2, 3, 4}, Payload: payload, Rate: r})
				n := tx.NumSymbols()
				gains := make([]complex128, n)
				ivar := make([]float64, n)
				start := float64(i)
				for j := 0; j < n; j++ {
					gains[j] = model.Gain(start + float64(j)*T + T/2)
				}
				det := PreambleDetects(cc.PHY, gains[:ofdm.PreambleSymbols], ivar[:ofdm.PreambleSymbols])
				noise := make([]float64, tx.NoiseDraws(det))
				for j := range noise {
					noise[j] = rng.NormFloat64()
				}
				frames = append(frames, calFrame{tx: tx, gains: gains, ivar: ivar, noise: noise, detected: det})
			}
		}

		// Stage 2 (parallel, pure): decode each frame from its replayed
		// noise stream. With batching on, each worker claims a contiguous
		// chunk of frames, replays their noise through the queued front end
		// and decodes the chunk in one lockstep batch — bit-identical to
		// the per-frame path, since the batch decoder is exact and each
		// frame consumes only its own pre-drawn variates.
		results := make([]calResult, len(frames))
		batch := cc.DecodeBatch
		if batch == 0 {
			batch = 8
		}
		if batch < 1 {
			eachWithWorkspace(cc.Workers, len(frames), func(ws *Workspace, i int) {
				f := frames[i]
				rx := ReceiveWS(ws, cc.PHY, f.tx, f.gains, f.ivar, &replayNorms{v: f.noise})
				results[i] = calSummarize(rx, f)
			})
		} else {
			nChunks := (len(frames) + batch - 1) / batch
			eachWithWorkspace(cc.Workers, nChunks, func(ws *Workspace, c int) {
				lo, hi := c*batch, (c+1)*batch
				if hi > len(frames) {
					hi = len(frames)
				}
				for i := lo; i < hi; i++ {
					f := frames[i]
					ws.QueueReceive(cc.PHY, f.tx, f.gains, f.ivar, &replayNorms{v: f.noise})
				}
				for k, rx := range ws.FlushReceptions() {
					results[lo+k] = calSummarize(rx, frames[lo+k])
				}
			})
		}

		// Stage 3 (serial): fold per-point sums in frame order — the same
		// floating-point summation the historical loop performed.
		bers := make([]float64, len(cc.SNRdB))
		lambdas := make([]float64, len(cc.SNRdB))
		for k := range cc.SNRdB {
			var hintBERSum float64
			frameErrs := 0
			var nBits int
			for i := 0; i < cc.FramesPerPoint; i++ {
				res := results[k*cc.FramesPerPoint+i]
				nBits = res.nBits
				if res.errored {
					frameErrs++
				}
				hintBERSum += res.logEstBER
			}
			bers[k] = math.Exp(hintBERSum / float64(cc.FramesPerPoint))
			fer := float64(frameErrs) / float64(cc.FramesPerPoint)
			if fer >= 1 {
				fer = 1 - 1e-9
			}
			if fer > 0 {
				lambdas[k] = -math.Log(1-fer) / float64(nBits)
			}
		}
		m.BER = append(m.BER, bers)
		m.Lambda = append(m.Lambda, lambdas)
	}
	return m
}

// Interpolation bounds: BER clamps to [berFloor, berCeil] and λ to
// [0, lambdaCeil].
const (
	berCeil, berFloor = 0.5, 1e-12
	lambdaCeil        = 1e-2
)

// BERAt returns the interpolated post-decode BER for rate index ri at the
// given instantaneous SNR. Interpolation is log-linear in BER over the dB
// axis; beyond the grid it clamps to 0.5 below and extrapolates the final
// slope above (floored at 1e-12).
func (m *BERModel) BERAt(ri int, snrDB float64) float64 {
	m.logOnce.Do(m.buildLogs)
	return m.interp(m.logBER[ri], snrDB, berCeil, berFloor)
}

// LambdaAt returns the interpolated error-event rate per info bit.
func (m *BERModel) LambdaAt(ri int, snrDB float64) float64 {
	m.logOnce.Do(m.buildLogs)
	return m.interp(m.logLambda[ri], snrDB, lambdaCeil, 0)
}

// buildLogs fills logBER and logLambda. Zeros and values at or below the
// floor take the floor's log; with a zero floor (λ) that is -Inf.
func (m *BERModel) buildLogs() {
	logs := func(rows [][]float64, floor float64) [][]float64 {
		out := make([][]float64, len(rows))
		for ri, v := range rows {
			out[ri] = make([]float64, len(v))
			for k, x := range v {
				if x <= floor || x == 0 {
					if floor == 0 {
						out[ri][k] = math.Inf(-1)
						continue
					}
					x = floor
				}
				out[ri][k] = math.Log(x)
			}
		}
		return out
	}
	m.logBER = logs(m.BER, berFloor)
	m.logLambda = logs(m.Lambda, 0)
}

// interp interpolates log(v) linearly over the dB grid, given logv, the
// floored logs of v (see buildLogs). Results at or below the floor return
// floor.
func (m *BERModel) interp(logv []float64, snrDB, ceil, floor float64) float64 {
	g := m.SNRdB
	switch {
	case snrDB <= g[0]:
		return ceil
	case snrDB >= g[len(g)-1]:
		// Extrapolate with the slope of the last decade of grid.
		n := len(g)
		a, b := logv[n-6], logv[n-1]
		if math.IsInf(a, -1) || math.IsInf(b, -1) {
			return floor
		}
		slope := (b - a) / (g[n-1] - g[n-6])
		x := b + slope*(snrDB-g[n-1])
		val := math.Exp(x)
		if val < floor {
			return floor
		}
		if val > ceil {
			return ceil
		}
		return val
	}
	// The bracket is the smallest k with g[k+1] >= snrDB (at most n-2). The
	// test is written as "not below" so a NaN input lands on k = 0.
	k, hi := 0, len(g)-2
	for k < hi {
		mid := int(uint(k+hi) >> 1)
		if !(g[mid+1] < snrDB) {
			hi = mid
		} else {
			k = mid + 1
		}
	}
	a, b := logv[k], logv[k+1]
	if math.IsInf(a, -1) && math.IsInf(b, -1) {
		return floor
	}
	if math.IsInf(b, -1) {
		b = math.Log(math.Max(floor, 1e-15))
	}
	if math.IsInf(a, -1) {
		a = math.Log(math.Max(floor, 1e-15))
	}
	f := (snrDB - g[k]) / (g[k+1] - g[k])
	val := math.Exp(a + f*(b-a))
	if val > ceil {
		return ceil
	}
	if val < floor {
		return floor
	}
	return val
}

// DeliverProb returns the probability that a frame of nInfoBits at rate ri
// survives a sequence of per-symbol SNRs, each symbol carrying bitsPerSym
// info bits: P = exp(-Σ λ(snr_j)·bits_j).
func (m *BERModel) DeliverProb(ri int, snrsDB []float64, bitsPerSym float64) float64 {
	m.logOnce.Do(m.buildLogs)
	logv := m.logLambda[ri]
	var lam float64
	for _, s := range snrsDB {
		lam += m.interp(logv, s, lambdaCeil, 0) * bitsPerSym
	}
	return math.Exp(-lam)
}

// MeanBER returns the mean post-decode BER over a sequence of per-symbol
// SNRs at rate ri.
func (m *BERModel) MeanBER(ri int, snrsDB []float64) float64 {
	if len(snrsDB) == 0 {
		return 0
	}
	m.logOnce.Do(m.buildLogs)
	logv := m.logBER[ri]
	var sum float64
	for _, s := range snrsDB {
		sum += m.interp(logv, s, berCeil, berFloor)
	}
	return sum / float64(len(snrsDB))
}
