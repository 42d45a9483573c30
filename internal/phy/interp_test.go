package phy

import (
	"math"
	"sync"
	"testing"

	"softrate/internal/rate"
)

// interpReference is the historical BERModel.interp: two logs per call and
// a linear scan for the grid bracket. The cached-log, binary-search interp
// must reproduce it bit for bit.
func interpReference(g, v []float64, snrDB, ceil, floor float64) float64 {
	logv := func(i int) float64 {
		x := v[i]
		if x <= floor || x == 0 {
			if floor == 0 {
				return math.Inf(-1)
			}
			x = floor
		}
		return math.Log(x)
	}
	switch {
	case snrDB <= g[0]:
		return ceil
	case snrDB >= g[len(g)-1]:
		n := len(g)
		a, b := logv(n-6), logv(n-1)
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
	k := 0
	for k+1 < len(g) && g[k+1] < snrDB {
		k++
	}
	a, b := logv(k), logv(k+1)
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

// sameFloat compares bit patterns, treating every NaN as equal.
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

func checkInterpMatchesReference(t *testing.T, name string, m *BERModel) {
	t.Helper()
	g := m.SNRdB
	var snrs []float64
	for s := g[0] - 3; s <= g[len(g)-1]+3; s += 0.01 {
		snrs = append(snrs, s)
	}
	snrs = append(snrs, g...)
	snrs = append(snrs, math.NaN(), math.Inf(1), math.Inf(-1))
	zeroLambda := false
	for ri := range m.BER {
		for _, x := range m.Lambda[ri] {
			zeroLambda = zeroLambda || x == 0
		}
		for _, s := range snrs {
			if got, want := m.BERAt(ri, s), interpReference(g, m.BER[ri], s, 0.5, 1e-12); !sameFloat(got, want) {
				t.Fatalf("%s: BERAt(%d, %v) = %v, want %v", name, ri, s, got, want)
			}
			if got, want := m.LambdaAt(ri, s), interpReference(g, m.Lambda[ri], s, 1e-2, 0); !sameFloat(got, want) {
				t.Fatalf("%s: LambdaAt(%d, %v) = %v, want %v", name, ri, s, got, want)
			}
		}
	}
	if !zeroLambda {
		t.Fatalf("%s: no zero λ entry, so the -Inf path is not covered", name)
	}
}

func TestInterpMatchesReferenceDefault(t *testing.T) {
	checkInterpMatchesReference(t, "DefaultBERModel", DefaultBERModel)
}

func TestInterpMatchesReferenceCalibrated(t *testing.T) {
	m := Calibrate(CalibrationConfig{
		PHY:            DefaultConfig(),
		Rates:          []rate.Rate{rate.ByIndex(0), rate.ByIndex(4)},
		SNRdB:          []float64{-2, 2, 6, 10, 14, 18, 22},
		FramesPerPoint: 3,
		PayloadBytes:   60,
		Seed:           5,
		Workers:        1,
	})
	checkInterpMatchesReference(t, "Calibrate", m)
}

// TestInterpConcurrentFirstUse queries a fresh model from several
// goroutines at once: the lazily built log tables must be built once and
// read safely (run under -race), with every answer unchanged.
func TestInterpConcurrentFirstUse(t *testing.T) {
	m := &BERModel{SNRdB: DefaultBERModel.SNRdB, BER: DefaultBERModel.BER, Lambda: DefaultBERModel.Lambda}
	snrs := []float64{-3, 0.5, 4.25, 9.9, 17, 29.5, 31}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ri := range m.BER {
				if got, want := m.MeanBER(ri, snrs), DefaultBERModel.MeanBER(ri, snrs); !sameFloat(got, want) {
					t.Errorf("MeanBER(%d) = %v, want %v", ri, got, want)
				}
				if got, want := m.DeliverProb(ri, snrs, 24), DefaultBERModel.DeliverProb(ri, snrs, 24); !sameFloat(got, want) {
					t.Errorf("DeliverProb(%d) = %v, want %v", ri, got, want)
				}
			}
		}()
	}
	wg.Wait()
}
