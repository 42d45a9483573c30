package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"softrate/internal/experiments"
)

// regenSeed is the fixed experiment seed sim-regen regenerates at; the
// expected digests below are for this seed only.
const regenSeed = 1

// regenFigure is one table sim-regen regenerates. The PHY half (fig7,
// fig8, fig10) is BCJR decoding in the PHY chain; the network half
// (fig14, fig17, fig18) is fading-trace generation and the TCP network
// simulator. Scales are chosen so each half takes about half the wall
// time and a whole set about 7 s, so a run repeats it and reports
// medians. (fig13 and fig16 run the same trace-driven pipeline but cost
// 13-19 s each at their 2 s simulated-duration floor, one noisy sample
// per run.)
type regenFigure struct {
	id    string
	scale float64
	half  string // "phy" or "net"
}

var regenFigures = []regenFigure{
	{"fig7", 0.3, "phy"},
	{"fig8", 0.3, "phy"},
	{"fig10", 0.3, "phy"},
	// The network figures run their 2 s minimum simulated duration at
	// any scale ≤ 0.2.
	{"fig14", 0.2, "net"},
	{"fig17", 0.2, "net"},
	{"fig18", 0.2, "net"},
}

// expectedDigests are the table digests (see tableDigest) of each figure
// at regenSeed and its scale. A harness change that alters any table
// cell changes its digest; update the entry only when the change is
// intended (the run prints the digests it computed).
var expectedDigests = map[string]string{
	"fig7":  "1b599016cff72316",
	"fig8":  "ce7bbe9586d88dd1",
	"fig10": "12a916a86d65c6f8",
	"fig14": "9e59cac51c87c77e",
	"fig17": "5e9293b38f8d5c0f",
	"fig18": "fc8c927c569c696c",
}

// tableDigest fingerprints a figure's tables: ID, title, header, every
// row and every note, in order.
func tableDigest(tabs []*experiments.Table) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, t := range tabs {
		// Encoding a Table (strings and string slices) cannot fail.
		_ = enc.Encode(t)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// regenResult is one figure's regeneration.
type regenResult struct {
	fig    regenFigure
	wall   time.Duration
	cpu    float64 // process CPU seconds spent
	digest string
	err    error
}

// regenerate runs one figure at the fixed seed with one worker per CPU.
func regenerate(f regenFigure, scale float64) regenResult {
	c0, t0 := cpuSeconds(), time.Now()
	tabs, err := experiments.Run(f.id, experiments.Options{Scale: scale, Seed: regenSeed, Workers: runtime.GOMAXPROCS(0)})
	r := regenResult{fig: f, wall: time.Since(t0), cpu: cpuSeconds() - c0, err: err}
	if err == nil {
		r.digest = tableDigest(tabs)
	}
	return r
}

// checkDigest reports whether a regenerated figure matches its expected
// digest.
func checkDigest(r regenResult) error {
	if r.err != nil {
		return r.err
	}
	if want := expectedDigests[r.fig.id]; r.digest != want {
		return fmt.Errorf("%s: table digest %s, expected %s", r.fig.id, r.digest, want)
	}
	return nil
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// The harness start-up probe: fig10 at regenSetupScale is almost all
// fixed cost (engine pool, PHY workspaces), run regenSetups times.
const (
	regenSetupScale = 0.02
	regenSetups     = 5
)

// runSimRegen is sim-regen's end-to-end run: whole regenerations of every
// figure, repeated until the run's time is used (at least one).
func runSimRegen(opt options, rep *report) error {
	var setups []float64
	for i := 0; i < regenSetups; i++ {
		r := regenerate(regenFigure{id: "fig10", half: "phy"}, regenSetupScale)
		if r.err != nil {
			return r.err
		}
		setups = append(setups, r.wall.Seconds())
	}
	sort.Float64s(setups)
	rep.Host.StreamDigest = fmt.Sprintf("experiments seed %d", regenSeed)

	var sets, peaks, figP50s []float64 // per set: its time, peak live heap, median figure time
	halves := map[string]time.Duration{}
	tables, failed := 0, 0
	// regenSet regenerates every figure once, checking each digest.
	regenSet := func(first bool) time.Duration {
		var total time.Duration
		figs := make([]float64, 0, len(regenFigures))
		for _, f := range regenFigures {
			r := regenerate(f, f.scale)
			tables++
			if err := checkDigest(r); err != nil {
				failed++
				rep.info("digest mismatch: %v", err)
			}
			if first {
				rep.info("%s digest %s in %v (%.2f CPU s)", f.id, r.digest, r.wall.Round(time.Millisecond), r.cpu)
			}
			total += r.wall
			halves[f.half] += r.wall
			figs = append(figs, r.wall.Seconds())
		}
		figP50s = append(figP50s, median(figs))
		return total
	}
	steal0, total0 := cpuTicks()
	deadline := time.Now().Add(time.Duration(opt.seconds) * time.Second)
	for len(sets) == 0 || time.Now().Before(deadline) {
		peak := watchLiveHeap()
		sets = append(sets, regenSet(len(sets) == 0).Seconds())
		peaks = append(peaks, peak())
	}
	steal1, total1 := cpuTicks()
	rep.info("host steal during the timed region: %.2f%% of CPU time", 100*float64(steal1-steal0)/float64(max(1, total1-total0)))
	rep.info("set times %.3f s", sets)
	sort.Float64s(sets)
	sort.Float64s(peaks)
	regen := sets[len(sets)/2]
	var all time.Duration
	for _, d := range halves {
		all += d
	}
	for h, d := range halves {
		if share := float64(d) / float64(all); share < 0.25 {
			return fmt.Errorf("vacuous run: the %s half took %.0f%% of the regeneration time (need at least a quarter)", h, 100*share)
		}
	}
	rep.set("setup_s", setups[len(setups)/2], "s")
	rep.set("throughput_per_s", float64(len(regenFigures))/regen, "1/s")
	// A researcher's wait for one figure: the median figure's time within
	// a set (the mean of the middle two of six), median over sets.
	rep.set("latency_p50_us", 1e6*median(figP50s), "us")
	rep.set("resident_mib", peaks[len(peaks)/2], "MiB")
	rep.info("regen_s = %.6g s (median of %d regenerations of %d figures)", regen, len(sets), len(regenFigures))
	rep.info("phy half %.1f s, net half %.1f s in total", halves["phy"].Seconds(), halves["net"].Seconds())
	rep.Attempted = int64(tables)
	rep.Failed = int64(failed)
	rep.Correct = failed == 0
	rep.info("failed_frac = %.6g ratio", float64(failed)/float64(tables))
	return nil
}

// median of v (the mean of the middle two for an even count); sorts v.
func median(v []float64) float64 {
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// watchLiveHeap samples the live heap the collector last marked until
// the returned function is called, which reports the largest sample in
// MiB: the memory a regeneration really holds at its widest point,
// independent of when collections happen to run.
func watchLiveHeap() func() float64 {
	stop := make(chan struct{})
	done := make(chan float64)
	go func() {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var peak uint64
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-t.C:
			case <-stop:
				done <- float64(peak) / (1 << 20)
				return
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-done
	}
}
