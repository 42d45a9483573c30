package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"sync"

	"softrate/internal/channel"
	"softrate/internal/ctl"
	"softrate/internal/linkstore"
	"softrate/internal/trace"
)

// stream is one client's pre-generated op sequence. It is built from the
// workload seed before any timing starts and replayed in order, wrapping
// at the end, so the timed region does no client-side generation. Op i of
// a run is ops[i % len(ops)]; batch b covers ops [b·batch, (b+1)·batch).
type stream struct {
	ops   []linkstore.Op
	batch int
}

// batches is the number of whole batches before the stream wraps.
func (s *stream) batches() int { return len(s.ops) / s.batch }

// batchAt returns batch b of the (wrapping) sequence.
func (s *stream) batchAt(b int) []linkstore.Op {
	i := (b % s.batches()) * s.batch
	return s.ops[i : i+s.batch]
}

// op returns op i of the (wrapping) sequence.
func (s *stream) op(i int) *linkstore.Op { return &s.ops[i%len(s.ops)] }

// clientBase namespaces client c's link IDs so clients never share a link
// and per-link order is each client's submission order.
func clientBase(c int) uint64 { return uint64(c+1) << 40 }

// linkChannel is the channel one link's frames cross: a trace and the
// interference overlay replayed on it.
type linkChannel struct {
	lt  *trace.LinkTrace
	mix trace.Mix
}

// tracePool holds the channels links replay: softrate-loadgen's three
// mixes (its makeTraces and mixFor), built from the workload seed.
//   - clean: a static 20 dB channel without fading;
//   - mobile: a walking trace (2 m start, 1.2 m/s away, 26 dB at 1 m,
//     path-loss exponent 2.2) and a static 18 dB Rayleigh channel at
//     40 Hz Doppler;
//   - hidden: a static 22 dB Rayleigh channel at 10 Hz under Table 1's
//     hidden-terminal collision geometry (35 % of frames collide; 15 % of
//     those lose the preamble; half of those are saved by the postamble).
//
// Links share the traces; each replays from its own seeded start slot
// with its own collision draws.
type tracePool []linkChannel

// traceSeconds is each trace's length: 1000 slots of 1 ms, the loadgen's.
const traceSeconds = 1.0

func newTracePool(seed int64) tracePool {
	rng := rand.New(rand.NewSource(seed))
	gen := func(m *channel.Model, s int64) *trace.LinkTrace {
		return trace.Generate(trace.GenConfig{Model: m, Duration: traceSeconds, Seed: seed + s})
	}
	hidden := trace.Mix{CollisionProb: 0.35, PreambleLossProb: 0.15, PostambleProb: 0.5}
	models := []struct {
		m   *channel.Model
		mix trace.Mix
	}{
		{channel.NewStaticModel(20, nil), trace.Mix{}},
		{channel.NewWalkingModel(rng, channel.LinearTrajectory{StartDist: 2, Speed: 1.2},
			channel.PathLoss{RefSNRdB: 26, RefDist: 1, Exponent: 2.2}), trace.Mix{}},
		{channel.NewStaticModel(18, channel.NewRayleigh(rng, 40, 0)), trace.Mix{}},
		{channel.NewStaticModel(22, channel.NewRayleigh(rng, 10, 0)), hidden},
	}
	pool := make(tracePool, len(models))
	var wg sync.WaitGroup
	for i, m := range models {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pool[i] = linkChannel{gen(m.m, int64(i+1)), m.mix}
		}()
	}
	wg.Wait()
	return pool
}

// channelOf assigns link k its channel: the three mixes take a third of
// the links each, and the mobile third splits between its two traces.
func (p tracePool) channelOf(k int) linkChannel {
	switch k % 6 {
	case 0, 1:
		return p[0]
	case 2:
		return p[1]
	case 3:
		return p[2]
	default:
		return p[3]
	}
}

// burnIn is how many frames each link sends, unrecorded, before its
// first op. The recorded frames then start from a controller that has
// settled, as the service's has by the time a run wraps the stream.
const burnIn = 16

// closeLoop fills in every op's feedback, given its LinkID (base + k for
// link k < nLinks) and Algo. Each link replays its channel one frame per
// op (trace.FrameIter) at the rate a bare controller of the op's
// algorithm chose on the link's previous frame: the decide → transmit →
// observe loop, run before timing, so the service sees the feedback a
// real sender following its decisions would send. The controller starts
// fresh and sends burnIn frames before the first recorded one. Links are
// independent, so they are generated one at a time.
//
// The service replays the frames, not the generator's controller: its
// controller starts fresh, and a run that outlasts the stream wraps it.
// So an answered decision and the rate of the link's next frame agree
// only where both controllers have settled into the same choice. verify
// reports the share that agreed.
func closeLoop(ops []linkstore.Op, base uint64, nLinks int, pool tracePool, seed int64) {
	// Counting sort of op positions by link, keeping stream order.
	start := make([]int32, nLinks+1)
	for i := range ops {
		start[ops[i].LinkID-base+1]++
	}
	for k := 1; k <= nLinks; k++ {
		start[k] += start[k-1]
	}
	pos := make([]int32, len(ops))
	next := append([]int32(nil), start[:nLinks]...)
	for i := range ops {
		k := ops[i].LinkID - base
		pos[next[k]] = int32(i)
		next[k]++
	}
	ctrls := make([]ctl.Controller, ctl.MaxID()+1)
	fresh := make([][]byte, ctl.MaxID()+1)
	first := make([]int, ctl.MaxID()+1) // a fresh controller's first rate
	for k := 0; k < nLinks; k++ {
		ps := pos[start[k]:start[k+1]]
		if len(ps) == 0 {
			continue
		}
		a := ops[ps[0]].Algo
		if ctrls[a] == nil {
			ctrls[a] = ctl.New(a)
			fresh[a] = make([]byte, ctrls[a].StateLen())
			ctrls[a].EncodeState(fresh[a])
			// NextRate may sample; the state is reset below either way.
			first[a] = ctrls[a].NextRate(0)
		}
		c := ctrls[a]
		if err := c.DecodeState(fresh[a]); err != nil {
			panic(err) // the controller's own EncodeState output
		}
		ch := pool.channelOf(k)
		it := ch.lt.FramesMix(seed*1000003+int64(base)+int64(k), ch.mix)
		r := first[a]
		var burn linkstore.Op
		for j := -burnIn; j < len(ps); j++ {
			ev, _ := it.Next(r) // ok is false only for an empty trace
			op := &burn
			if j >= 0 {
				op = &ops[ps[j]]
			}
			op.Kind = ev.Kind
			op.RateIndex = int32(ev.RateIndex)
			op.BER = ev.BER
			op.SNRdB = float32(ev.SNRdB)
			op.Delivered = ev.Delivered
			r = c.Apply(feedbackOf(op))
		}
	}
}

// hotSpec shapes a SoftRate-only stream over a few thousand hot links.
type hotSpec struct {
	links int     // links per client
	batch int     // ops per batch
	n     int     // batches before the stream wraps
	zipfS float64 // skew of the per-link popularity (scale-free load)
}

// genHot builds client c's SoftRate-only stream: batches of hs.batch ops
// whose links are drawn from a Zipf popularity, so a few links (and the
// shards they hash to) carry more load than the rest.
func genHot(seed int64, c int, hs hotSpec, pool tracePool) *stream {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(c)))
	zipf := rand.NewZipf(rng, hs.zipfS, 16, uint64(hs.links-1))
	// Popularity rank → link index through a permutation, so the hottest
	// links are not also the lowest IDs.
	perm := rng.Perm(hs.links)
	s := &stream{ops: make([]linkstore.Op, hs.n*hs.batch), batch: hs.batch}
	for i := range s.ops {
		op := &s.ops[i]
		op.LinkID = clientBase(c) + uint64(perm[zipf.Uint64()])
		op.Algo = ctl.AlgoSoftRate
	}
	closeLoop(s.ops, clientBase(c), hs.links, pool, seed)
	return s
}

// churnSpec shapes the cold-tier churn stream: every batch mixes ops on a
// large hot set, walked in a fixed shuffled order so each hot link recurs
// once per hot lap, with ops walking an idle population that recurs only
// once per stream lap — long enough to idle out under the TTL and spill.
type churnSpec struct {
	hot   int // hot links per client
	idle  int // idle links per client
	batch int // ops per batch
	idleN int // idle ops per batch; batch-idleN are hot
}

// batches is the stream length: exactly one walk of the idle population.
func (cs churnSpec) batches() int { return cs.idle / cs.idleN }

// churnAlgo assigns link k its algorithm: SoftRate for most links, the
// other four §6.1 algorithms for a twentieth each. A pure function of the
// link index, so the oracle and the stream agree without a table.
func churnAlgo(k uint64) ctl.Algo {
	switch h := k * 0x9E3779B97F4A7C15 >> 58; {
	case h < 51: // 51/64 ≈ 80%
		return ctl.AlgoSoftRate
	case h < 54:
		return ctl.AlgoSampleRate
	case h < 57:
		return ctl.AlgoRRAA
	case h < 61:
		return ctl.AlgoSNR
	default:
		return ctl.AlgoCHARM
	}
}

// genChurn builds client c's churn stream. Hot links are indices
// [0, hot), idle links [hot, hot+idle) of the client's ID space.
func genChurn(seed int64, c int, cs churnSpec, pool tracePool) *stream {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(c) + 7919))
	hotOrder := rng.Perm(cs.hot)
	idleOrder := rng.Perm(cs.idle)
	n := cs.batches()
	s := &stream{ops: make([]linkstore.Op, n*cs.batch), batch: cs.batch}
	hi, ii := 0, 0
	for b := 0; b < n; b++ {
		for j := 0; j < cs.batch; j++ {
			// Idle ops are spread evenly through the batch rather than
			// bunched, so each shard visit sees the same mix.
			var k int
			if j%(cs.batch/cs.idleN) == 0 {
				k = cs.hot + idleOrder[ii]
				ii++
			} else {
				k = hotOrder[hi]
				if hi++; hi == cs.hot {
					hi = 0
				}
			}
			op := &s.ops[b*cs.batch+j]
			op.LinkID = clientBase(c) + uint64(k)
			op.Algo = churnAlgo(uint64(k))
		}
	}
	closeLoop(s.ops, clientBase(c), cs.hot+cs.idle, pool, seed)
	return s
}

// digest fingerprints streams: every op's fields in order, so two runs
// with the same seed can be shown to have fed the service identical
// inputs, and runs with different seeds different ones.
func digest(ss []*stream) string {
	h := sha256.New()
	var rec [31]byte
	for _, s := range ss {
		for i := range s.ops {
			op := &s.ops[i]
			binary.LittleEndian.PutUint64(rec[0:8], op.LinkID)
			binary.LittleEndian.PutUint64(rec[8:16], math.Float64bits(op.BER))
			binary.LittleEndian.PutUint32(rec[16:20], math.Float32bits(op.SNRdB))
			binary.LittleEndian.PutUint32(rec[20:24], math.Float32bits(op.Airtime))
			binary.LittleEndian.PutUint32(rec[24:28], uint32(op.RateIndex))
			rec[28] = byte(op.Algo)
			rec[29] = byte(op.Kind)
			rec[30] = 0
			if op.Delivered {
				rec[30] = 1
			}
			h.Write(rec[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
