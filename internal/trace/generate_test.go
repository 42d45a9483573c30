package trace

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"softrate/internal/channel"
	"softrate/internal/ofdm"
	"softrate/internal/rate"
)

// generateReference is the historical per-rate Generate: every rate
// re-samples the channel for every slot and draws its randomness as it
// goes. Generate must reproduce it bit for bit.
func generateReference(gc GenConfig) *LinkTrace {
	gc.fill()
	rng := rand.New(rand.NewSource(gc.Seed))
	nSlots := int(gc.Duration / gc.Interval)
	lt := &LinkTrace{
		Interval:  gc.Interval,
		FrameBits: (gc.PayloadBytes + 4) * 8,
	}
	T := gc.Mode.SymbolTime()
	sample := func(t0 float64, n int) []float64 {
		out := make([]float64, n)
		for j := 0; j < n; j++ {
			out[j] = channel.LinearToDB(gc.Model.SNR(t0 + (float64(j)+0.5)*T))
		}
		return out
	}
	effJitter := make([]float64, nSlots)
	for s := range effJitter {
		effJitter[s] = rng.NormFloat64() * gc.EffJitterDB
	}
	for ri, r := range gc.Rates {
		snaps := make([]Snapshot, nSlots)
		num, den := r.Code.Fraction()
		nSym := gc.Mode.DataSymbols((lt.FrameBits+6)*den/num, r.Scheme)
		bitsPerSym := float64(gc.Mode.InfoBitsPerSymbol(r))
		for s := 0; s < nSlots; s++ {
			t0 := float64(s) * gc.Interval
			preSNR := sample(t0, ofdm.PreambleSymbols)
			dataSNR := sample(t0+float64(ofdm.PreambleSymbols)*T, nSym)
			for j := range dataSNR {
				dataSNR[j] += effJitter[s]
			}
			var preLin float64
			for _, s := range preSNR {
				preLin += channel.DBToLinear(s)
			}
			preLin /= float64(len(preSNR))
			detected := preLin >= gc.DetectSINR

			ber := gc.BERModel.MeanBER(ri, dataSNR)
			ber *= math.Exp(rng.NormFloat64() * gc.BERJitter)
			if ber > 0.5 {
				ber = 0.5
			}
			dp := gc.BERModel.DeliverProb(ri, dataSNR, bitsPerSym)
			if !detected {
				dp = 0
			}
			snaps[s] = Snapshot{
				Detected:    detected,
				Delivered:   detected && rng.Float64() < dp,
				DeliverProb: dp,
				BER:         ber,
				SNRdB:       channel.LinearToDB(preLin) + rng.NormFloat64()*gc.SNRNoiseDB,
			}
		}
		lt.Snapshots = append(lt.Snapshots, snaps)
	}
	return lt
}

// sameSnapshots reports the first field of any snapshot where a and b
// differ, comparing floats by their bits.
func sameSnapshots(a, b *LinkTrace) error {
	if a.Interval != b.Interval || a.FrameBits != b.FrameBits || len(a.Snapshots) != len(b.Snapshots) {
		return fmt.Errorf("shape: interval %v/%v, frame bits %d/%d, rates %d/%d",
			a.Interval, b.Interval, a.FrameBits, b.FrameBits, len(a.Snapshots), len(b.Snapshots))
	}
	f := math.Float64bits
	for ri := range a.Snapshots {
		if len(a.Snapshots[ri]) != len(b.Snapshots[ri]) {
			return fmt.Errorf("rate %d: %d slots, want %d", ri, len(a.Snapshots[ri]), len(b.Snapshots[ri]))
		}
		for s, x := range a.Snapshots[ri] {
			y := b.Snapshots[ri][s]
			if x.Detected != y.Detected || x.Delivered != y.Delivered ||
				f(x.DeliverProb) != f(y.DeliverProb) || f(x.BER) != f(y.BER) || f(x.SNRdB) != f(y.SNRdB) {
				return fmt.Errorf("rate %d slot %d: %+v, want %+v", ri, s, x, y)
			}
		}
	}
	return nil
}

func TestGenerateMatchesPerRateReference(t *testing.T) {
	models := []struct {
		name string
		mk   func(rng *rand.Rand) *channel.Model
		// wantUndetected asks for a channel deep enough that some slots
		// miss the preamble, so the skipped delivery draw is exercised.
		wantUndetected bool
	}{
		{"awgn", func(*rand.Rand) *channel.Model { return channel.NewStaticModel(12, nil) }, false},
		{"rayleigh", func(rng *rand.Rand) *channel.Model {
			return channel.NewStaticModel(16, channel.NewRayleigh(rng, 40, 0))
		}, false},
		{"walking", func(rng *rand.Rand) *channel.Model {
			return channel.NewWalkingModel(rng, channel.LinearTrajectory{StartDist: 2, Speed: 1.2},
				channel.PathLoss{RefSNRdB: 26, RefDist: 1, Exponent: 2.2})
		}, false},
		{"low-snr-rayleigh", func(rng *rand.Rand) *channel.Model {
			return channel.NewStaticModel(1, channel.NewRayleigh(rng, 20, 0))
		}, true},
	}
	rateSets := []struct {
		name  string
		rates []rate.Rate
	}{
		{"evaluation", rate.Evaluation()},
		{"all", rate.All()},
	}
	for _, m := range models {
		for _, rs := range rateSets {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed%d", m.name, rs.name, seed), func(t *testing.T) {
					gc := GenConfig{
						Model: m.mk(rand.New(rand.NewSource(seed))),
						Rates: rs.rates,
						// Not a multiple of the 1 ms interval.
						Duration: 0.2437,
						Seed:     seed + 10,
					}
					got, want := Generate(gc), generateReference(gc)
					if err := sameSnapshots(got, want); err != nil {
						t.Fatal(err)
					}
					undetected := 0
					for _, snap := range got.Snapshots[0] {
						if !snap.Detected {
							undetected++
						}
					}
					if m.wantUndetected && (undetected == 0 || undetected == len(got.Snapshots[0])) {
						t.Fatalf("%d of %d slots undetected; want some but not all", undetected, len(got.Snapshots[0]))
					}
				})
			}
		}
	}
}
