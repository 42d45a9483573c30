package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"softrate/internal/channel"
	"softrate/internal/coding"
	"softrate/internal/coldstore"
	"softrate/internal/ctl"
	"softrate/internal/linkstore"
	"softrate/internal/phy"
	"softrate/internal/rate"
	"softrate/internal/server"
	"softrate/internal/softphy"
	"softrate/internal/stats"
	"softrate/internal/trace"
)

// The traced run (--trace 1) gives the per-layer numbers. It calls each
// module's public functions from the benchmark's own files — no tracing
// inside the program — and records:
//   - spans around every call the benchmark makes into a layer, kept in
//     memory and written to <build-dir>/spans-<workload>-<seed>.csv;
//   - counter deltas (server Stats/Status, UDP client stats, cold tier
//     Stats, timed file I/O) over the same region;
//   - a ladder that pushes the workload's own op stream through each
//     layer in turn (L0 ctl → L1 ApplyBatch → L2 Decide → L3 codec → L4
//     transport), interleaving repetitions and recording each rung's
//     median and spread;
//   - a CPU profile, attributed to modules by self time.

// perLayerNames is every per-layer metric, with its unit, in the order
// BENCHMARK.json lists them. Every traced run reports all of them; a
// metric whose layer the workload never reaches reads 0 and the run says
// so on an info line.
var perLayerNames = []struct{ name, unit string }{
	{"ctl.apply_ns_per_op.softrate", "ns"},
	{"ctl.apply_ns_per_op.samplerate", "ns"},
	{"ctl.apply_ns_per_op.rraa", "ns"},
	{"ctl.apply_ns_per_op.snr", "ns"},
	{"ctl.apply_ns_per_op.charm", "ns"},
	{"linkstore.apply_ns_per_op", "ns"},
	{"linkstore.hit_ratio", "ratio"},
	{"linkstore.restores_per_kop", "1/kop"},
	{"linkstore.evictions_per_kop", "1/kop"},
	{"linkstore.scaling_2v1", "ratio"},
	{"linkstore.archived_mib", "MiB"},
	{"linkstore.shard_skew", "ratio"},
	{"coldstore.restore_p50_us", "us"},
	{"coldstore.restore_p99_us", "us"},
	{"coldstore.spilled_per_kop", "1/kop"},
	{"coldstore.restored_per_kop", "1/kop"},
	{"coldstore.compactions", "count"},
	{"coldstore.io_busy_s", "s"},
	{"coldstore.read_mib", "MiB"},
	{"coldstore.write_mib", "MiB"},
	{"coldstore.errors", "count"},
	{"server.decide_ns_per_op", "ns"},
	{"server.decide_overhead_ns_per_op", "ns"},
	{"server.decide_scaling_2v1", "ratio"},
	{"server.decide_p99_us", "us"},
	{"server.codec_ns_per_op", "ns"},
	{"server.tcp_rtt_p50_us", "us"},
	{"server.tcp_self_us", "us"},
	{"server.udp_rtt_p50_us", "us"},
	{"server.udp_self_us", "us"},
	{"server.udp_ops_per_burst", "ratio"},
	{"server.udp_timeouts", "count"},
	{"server.udp_drops", "count"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"coding.bcjr_frames_per_s", "1/s"},
	{"phy.chain_frames_per_s", "1/s"},
	{"channel.gain_ns_per_call", "ns"},
	{"trace.generate_s", "s"},
	{"experiments.cpu_util", "ratio"},
	{"server.cpu_share", "ratio"},
	{"linkstore.cpu_share", "ratio"},
	{"ctl.cpu_share", "ratio"},
	{"coldstore.cpu_share", "ratio"},
	{"runtime.cpu_share", "ratio"},
	{"coding.cpu_share", "ratio"},
	{"phy.cpu_share", "ratio"},
	{"channel.cpu_share", "ratio"},
	{"trace.cpu_share", "ratio"},
	{"netsim.cpu_share", "ratio"},
	{"transport.cpu_share", "ratio"},
	{"perfbench.cpu_share", "ratio"},
	{"driver.late_p99_us", "us"},
	{"driver.latency_p99_us", "us"},
	{"driver.batches", "count"},
	{"driver.trace_overhead_frac", "ratio"},
}

// fillAbsent reports every per-layer metric the run did not measure as 0
// and names them, with the reason, on one info line.
func fillAbsent(rep *report, why string) {
	var absent []string
	for _, m := range perLayerNames {
		if _, ok := rep.Metrics[m.name]; !ok {
			rep.set(m.name, 0, m.unit)
			absent = append(absent, m.name)
		}
	}
	if len(absent) > 0 {
		rep.info("not reached by this workload (reported as 0, %s): %v", why, absent)
	}
}

// --- spans ---

// span is one call the benchmark made into a layer.
type span struct {
	id, parent uint32
	name       string
	start, end int64 // nanotime
}

// spanLog collects spans in memory. One log per goroutine; merged and
// written once the run ends. Capped so a long run cannot grow it
// unboundedly; drops are counted.
type spanLog struct {
	next    *atomic.Uint32
	spans   []span
	dropped int
}

const maxSpansPerLog = 1 << 18

func newSpanLogs(n int) []*spanLog {
	next := new(atomic.Uint32)
	out := make([]*spanLog, n)
	for i := range out {
		out[i] = &spanLog{next: next, spans: make([]span, 0, 1<<16)}
	}
	return out
}

// add records a span under a fresh id and returns the id.
func (l *spanLog) add(parent uint32, name string, start, end int64) uint32 {
	id := l.next.Add(1)
	l.put(span{id, parent, name, start, end})
	return id
}

// put records a span whose id was reserved earlier (a parent recorded
// after its children).
func (l *spanLog) put(s span) {
	if len(l.spans) == maxSpansPerLog {
		l.dropped++
		return
	}
	l.spans = append(l.spans, s)
}

// writeSpans writes every log's spans as CSV, sorted by start.
func writeSpans(path string, logs []*spanLog) (int, int, error) {
	var all []span
	dropped := 0
	for _, l := range logs {
		all = append(all, l.spans...)
		dropped += l.dropped
	}
	sort.Slice(all, func(i, j int) bool { return all[i].start < all[j].start })
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,name,start_ns,end_ns")
	for _, s := range all {
		fmt.Fprintf(w, "%d,%d,%s,%d,%d\n", s.id, s.parent, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, 0, err
	}
	return len(all), dropped, f.Close()
}

// --- profiles and runtime counters ---

// profiled runs fn under the CPU profiler and returns the profile.
func profiled(fn func() error) ([]byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	err := fn()
	pprof.StopCPUProfile()
	return buf.Bytes(), err
}

// reportShares attributes a CPU profile's self time to modules.
func reportShares(rep *report, prof []byte) error {
	shares, others, err := cpuShares(prof)
	if err != nil {
		return err
	}
	setShares(rep, shares)
	rep.info("largest self time outside the named modules: %v", others)
	return nil
}

func setShares(rep *report, shares map[string]float64) {
	named := 0.0
	for _, m := range []string{"server", "linkstore", "ctl", "coldstore", "runtime", "coding", "phy", "channel", "trace", "netsim", "transport", "perfbench"} {
		rep.set(m+".cpu_share", shares[m], "ratio")
		named += shares[m]
	}
	rep.info("CPU profile: %.1f%% of self time attributed to named modules (other %.1f%%)", 100*named, 100*shares["other"])
}

// gcSample reads total and GC CPU seconds from the runtime.
func gcSample() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// --- serving ---

// ladderBatches is how many batches of the workload's stream each rung
// times, after warming on the same number.
const (
	ladderBatches = 1024
	ladderReps    = 5
)

// rung accumulates one ladder rung's per-rep values.
type rung struct{ vals []float64 }

func (r *rung) add(v float64) { r.vals = append(r.vals, v) }

// median and spread (interquartile range over median).
func (r *rung) stats() (med, spread float64) {
	v := append([]float64(nil), r.vals...)
	sort.Float64s(v)
	med = v[len(v)/2]
	q1, q3 := v[len(v)/4], v[(3*len(v))/4]
	if med != 0 {
		spread = (q3 - q1) / med
	}
	return med, spread
}

// traceServing is a serve-* workload's traced run.
func traceServing(w *servingWorkload, opt options, rep *report) error {
	streams := w.streams(opt.seed)
	rep.Host.StreamDigest = digest(streams)
	scratch, err := scratchDir(opt)
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	one := *w
	one.setups = 1
	tg, clients, _, err := one.setUpMedian(streams, scratch)
	if err != nil {
		return err
	}
	defer func() {
		closeAll(clients)
		tg.stop()
	}()

	// Untraced and traced closed-loop windows, interleaved, for the
	// tracing overhead; counters are taken across the traced ones.
	logs := newSpanLogs(len(clients))
	var plain, traced rung
	stBefore, coldBefore, ioBefore := tg.srv.Stats(), coldSnap(tg), ioSnapOf(tg)
	decideBefore, restoreBefore := decideHist(tg.srv), restoreHist(tg)
	m0 := mallocs()
	gc0, tot0 := gcSample()
	windowOps := 0
	for k := 0; k < 3; k++ {
		ops, wall, err := closedWindow(clients, w.window, windowLen, nil)
		if err != nil {
			return err
		}
		plain.add(float64(ops) / wall.Seconds())
		windowOps += ops
		t0 := nanotime()
		parents := make([]uint32, len(clients))
		for i := range clients {
			parents[i] = logs[i].next.Add(1)
		}
		ops, wall, err = closedWindow(clients, w.window, windowLen, func(c int) roundHook {
			return func(sub, ans int64) { logs[c].add(parents[c], "submit-wait", sub, ans) }
		})
		if err != nil {
			return err
		}
		for i := range clients {
			logs[i].put(span{parents[i], 0, "closed-window", t0, nanotime()})
		}
		traced.add(float64(ops) / wall.Seconds())
		windowOps += ops
	}
	stAfter, coldAfter, ioAfter := tg.srv.Stats(), coldSnap(tg), ioSnapOf(tg)
	decided, restored := decideHist(tg.srv).minus(decideBefore), restoreHist(tg).minus(restoreBefore)
	gc1, tot1 := gcSample()
	pm, _ := plain.stats()
	tm, _ := traced.stats()
	rep.set("driver.trace_overhead_frac", 1-tm/pm, "ratio")
	rep.set("runtime.gc_cpu_frac", (gc1-gc0)/max(1e-9, tot1-tot0), "ratio")
	rep.info("closed loop with %d clients: %.0f decisions/s untraced, %.0f traced; %.3g allocations per op in the whole process", len(clients), pm, tm, float64(mallocs()-m0)/float64(max(1, windowOps)))
	ops := storeCounters(rep, stBefore.Store, stAfter.Store, tg)
	coldCounters(rep, tg, ops, coldBefore, coldAfter, ioBefore, ioAfter, restored)
	if p99, n := decided.quantile(0.99); n > 0 {
		rep.set("server.decide_p99_us", us(p99), "us")
		rep.info("server.decide_p99_us over the %d Decide calls of the traced windows", n)
	}

	// Open loop, with the generator's lateness.
	lat, late, err := openLoop(clients, w.openRate/float64(w.batch), 2*windowLen)
	if err != nil {
		return err
	}
	sortDurations(lat)
	sortDurations(late)
	rep.set("driver.late_p99_us", us(quantile(late, 0.99)), "us")
	rep.set("driver.latency_p99_us", us(quantile(lat, 0.99)), "us")
	rep.set("driver.batches", float64(len(lat)), "count")

	// CPU attribution over two closed-loop windows. (The open loop's
	// generator spins in runtime.Gosched, which would read as runtime.)
	prof, err := profiled(func() error {
		_, _, err := closedWindow(clients, w.window, 2*windowLen, nil)
		return err
	})
	if err != nil {
		return err
	}
	if err := reportShares(rep, prof); err != nil {
		return err
	}

	if err := ladder(w, tg, clients, rep, logs[0]); err != nil {
		return err
	}
	path := filepath.Join(opt.buildDir, fmt.Sprintf("spans-%s-%d.csv", w.name, opt.seed))
	n, dropped, err := writeSpans(path, logs)
	if err != nil {
		return err
	}
	rep.info("%d spans written to %s (%d dropped past the in-memory cap)", n, path, dropped)
	fillAbsent(rep, "see README.md")
	verify(clients, rep)
	return nil
}

func ioSnapOf(tg *target) ioSnap {
	if tg.io == nil {
		return ioSnap{}
	}
	return tg.io.snap()
}

// storeCounters reports the link store's deltas over the traced region
// and returns the ops it served there.
func storeCounters(rep *report, a, b linkstore.Stats, tg *target) float64 {
	ops := float64((b.Hits + b.Creates + b.Restores) - (a.Hits + a.Creates + a.Restores))
	if ops == 0 {
		return 0
	}
	rep.set("linkstore.hit_ratio", float64(b.Hits-a.Hits)/ops, "ratio")
	rep.set("linkstore.restores_per_kop", 1000*float64(b.Restores-a.Restores)/ops, "1/kop")
	rep.set("linkstore.evictions_per_kop", 1000*float64(b.Evictions-a.Evictions)/ops, "1/kop")
	rep.set("linkstore.archived_mib", float64(b.ArchivedBytes)/(1<<20), "MiB")
	// Shard skew: the busiest shard's ops over the mean, from PerShard.
	var maxOps, sum float64
	per := tg.srv.Store().PerShard()
	for _, s := range per {
		n := float64(s.Hits + s.Creates + s.Restores)
		sum += n
		maxOps = max(maxOps, n)
	}
	rep.set("linkstore.shard_skew", maxOps/(sum/float64(len(per))), "ratio")
	return ops
}

// coldCounters reports the cold tier's deltas over the traced region,
// which served ops store operations.
func coldCounters(rep *report, tg *target, ops float64, a, b coldstore.Stats, ia, ib ioSnap, restored latHist) {
	if tg.cold == nil || ops == 0 {
		return
	}
	if p50, n := restored.quantile(0.50); n > 0 {
		p99, _ := restored.quantile(0.99)
		rep.set("coldstore.restore_p50_us", us(p50), "us")
		rep.set("coldstore.restore_p99_us", us(p99), "us")
		rep.info("coldstore restore quantiles over the %d disk restores of the traced windows", n)
	}
	rep.set("coldstore.spilled_per_kop", 1000*float64(b.Spills-a.Spills)/ops, "1/kop")
	rep.set("coldstore.restored_per_kop", 1000*float64(b.Restores-a.Restores)/ops, "1/kop")
	rep.set("coldstore.compactions", float64(b.Compactions-a.Compactions), "count")
	rep.set("coldstore.io_busy_s", float64(ib.busy-ia.busy)/1e9, "s")
	rep.set("coldstore.read_mib", float64(ib.read-ia.read)/(1<<20), "MiB")
	rep.set("coldstore.write_mib", float64(ib.write-ia.write)/(1<<20), "MiB")
	rep.set("coldstore.errors", float64(tg.srv.Stats().Store.ColdErrors), "count")
}

// latHist is a latency histogram as counts per bucket, keyed by the
// bucket's upper bound in ns. The cold tier's LatencySnapshot and the
// server's Prometheus exposition both give cumulative histograms since
// start; the difference of two readings is the histogram of what
// happened between them.
type latHist map[int64]uint64

func histOf(h stats.Histogram) latHist {
	out := latHist{}
	var prev uint64
	h.Buckets(func(upper int64, cum uint64) {
		out[upper] = cum - prev
		prev = cum
	})
	return out
}

// restoreHist is the cold tier's restore-latency histogram (empty
// without a tier).
func restoreHist(tg *target) latHist {
	if tg.cold == nil {
		return latHist{}
	}
	return histOf(tg.cold.LatencySnapshot())
}

// decideHist is the server's per-Decide latency histogram, summed over
// algorithms. Status only carries its quantiles; the Prometheus
// exposition carries the buckets.
func decideHist(srv *server.Server) latHist {
	var b bytes.Buffer
	srv.WritePrometheus(&b)
	out := latHist{}
	prev := map[string]uint64{} // cumulative count so far, per label set
	for _, line := range strings.Split(b.String(), "\n") {
		rest, ok := strings.CutPrefix(line, "softrated_batch_latency_seconds_bucket{")
		if !ok {
			continue
		}
		labels, val, _ := strings.Cut(rest, "} ")
		algo, le, _ := strings.Cut(labels, `,le="`)
		le = strings.TrimSuffix(le, `"`)
		if le == "+Inf" { // repeats the last bucket's count
			continue
		}
		sec, err1 := strconv.ParseFloat(le, 64)
		cum, err2 := strconv.ParseFloat(val, 64)
		if err1 != nil || err2 != nil {
			continue
		}
		out[int64(math.Round(sec*1e9))] += uint64(cum) - prev[algo]
		prev[algo] = uint64(cum)
	}
	return out
}

// minus is h with an earlier reading of the same histogram taken away.
func (h latHist) minus(earlier latHist) latHist {
	out := latHist{}
	for k, n := range h {
		if d := n - earlier[k]; d > 0 {
			out[k] = d
		}
	}
	return out
}

// quantile is the nearest-rank q-quantile, as its bucket's upper bound
// (within the histogram's 1/16-octave resolution), and the count.
func (h latHist) quantile(q float64) (time.Duration, uint64) {
	bounds := make([]int64, 0, len(h))
	var n uint64
	for k, c := range h {
		bounds = append(bounds, k)
		n += c
	}
	if n == 0 {
		return 0, 0
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	rank := max(1, uint64(math.Ceil(q*float64(n))))
	var cum uint64
	for _, k := range bounds {
		if cum += h[k]; cum >= rank {
			return time.Duration(k), n
		}
	}
	return time.Duration(bounds[len(bounds)-1]), n
}

// ladder pushes the workload's stream through each layer in turn,
// interleaving ladderReps repetitions of every rung. L1 and L2 continue
// the clients' streams, taking their batches in turn, on the served
// instance, which set-up and the traced windows left in steady state (on
// serve-churn, idle links evict, spill and restore from disk). L1 and L2
// alternate in blocks, and their answers join the clients' logs, so the
// oracle checks them too. L0, L3 and L4 run on client 0's stream after
// its prewarm batches, on fresh instances.
func ladder(w *servingWorkload, tg *target, clients []*client, rep *report, log *spanLog) error {
	s := clients[0].s
	nb := min(ladderBatches, s.batches()/2)
	// L0, L3 and L4 time batches [from, from+nb), each warming first.
	from := w.warm(s) % s.batches()
	opsTimed := float64(nb * s.batch)
	byAlgo := splitByAlgo(s, from, nb)
	algos := make([]ctl.Algo, 0, len(byAlgo))
	for a := range byAlgo {
		algos = append(algos, a)
	}
	sort.Slice(algos, func(i, j int) bool { return algos[i] < algos[j] })
	var l0 = map[ctl.Algo]*rung{}
	var l1, l2, l3, tcpRTT, udpRTT, tcpSelf, udpSelf, burst, allocs rung
	var udpTimeouts, udpDrops uint64
	st := tg.srv.Store()
	stBefore, coldBefore := st.Stats(), coldSnap(tg)
	out := make([]int32, s.batch)
	// served runs n batches, the clients' in turn, through ApplyBatch
	// (L1) or Decide (L2).
	served := func(decide bool, n int) time.Duration {
		var d time.Duration
		for i := 0; i < n; i++ {
			c := clients[i%len(clients)]
			ops := c.s.batchAt(c.next)
			tg.tick(len(ops))
			t0 := nanotime()
			var got []int32
			if decide {
				got = tg.srv.Decide(ops, out)
			} else {
				got = st.ApplyBatch(ops, out)
			}
			t1 := nanotime()
			d += time.Duration(t1 - t0)
			if decide {
				log.add(0, "Decide", t0, t1)
			} else {
				log.add(0, "ApplyBatch", t0, t1)
			}
			c.record(got)
			c.next++
		}
		return d
	}
	const block = 64
	for r := 0; r < ladderReps; r++ {
		// L0: bare controllers through their encoded state, per algorithm.
		for _, a := range algos {
			ops := byAlgo[a]
			o := newOracle()
			for i := range ops[:len(ops)/2] {
				o.apply(&ops[i])
			}
			t0 := time.Now()
			for i := len(ops) / 2; i < len(ops); i++ {
				o.apply(&ops[i])
			}
			if l0[a] == nil {
				l0[a] = &rung{}
			}
			l0[a].add(float64(time.Since(t0)) / float64(len(ops)-len(ops)/2))
		}
		// L1 (the link store alone) and L2 (Server.Decide: counters,
		// histograms, admission gate), alternating blocks.
		var d1, d2 time.Duration
		var m uint64
		for k := 0; k < nb; k += block {
			d1 += served(false, block)
			m0 := mallocs()
			d2 += served(true, block)
			m += mallocs() - m0
		}
		l1.add(float64(d1) / opsTimed)
		l2.add(float64(d2) / opsTimed)
		allocs.add(float64(m) / opsTimed)

		// L3: the wire codec, encode and decode.
		var buf []byte
		var dec []linkstore.Op
		var err error
		t0 := time.Now()
		for b := from; b < from+nb; b++ {
			buf = server.AppendOpsV3(buf[:0], uint32(b), s.batchAt(b))
			if dec, _, _, err = server.DecodeRequest(buf, dec[:0]); err != nil {
				return fmt.Errorf("ladder codec: %w", err)
			}
		}
		l3.add(float64(time.Since(t0)) / opsTimed)

		// L4: stop-and-wait round trips over loopback TCP and UDP.
		rtt, self, err := transportRung(buildTCP, s, from, nb, log)
		if err != nil {
			return err
		}
		tcpRTT.add(rtt)
		tcpSelf.add(self)
		rtt, self, err = transportRung(buildUDP, udpView(s), from, nb, log)
		if err != nil {
			return err
		}
		udpRTT.add(rtt)
		udpSelf.add(self)
		b, timeouts, drops, err := udpBurstRung(udpView(s), nb)
		if err != nil {
			return err
		}
		burst.add(b)
		udpTimeouts += timeouts
		udpDrops += drops
	}
	if err := steadyCheck(w, "ladder L1/L2", tg, stBefore, coldBefore, rep); err != nil {
		return err
	}
	for _, a := range algos {
		med, sp := l0[a].stats()
		name := ctlName(a)
		rep.set("ctl.apply_ns_per_op."+name, med, "ns")
		rep.info("ladder L0 ctl %s: %.1f ns/op (spread %.2f)", name, med, sp)
	}
	for _, x := range []struct {
		metric, label string
		r             *rung
		unit          string
	}{
		{"linkstore.apply_ns_per_op", "L1 ApplyBatch", &l1, "ns"},
		{"server.decide_ns_per_op", "L2 Decide", &l2, "ns"},
		{"server.codec_ns_per_op", "L3 codec", &l3, "ns"},
		{"server.tcp_rtt_p50_us", "L4 TCP round trip p50", &tcpRTT, "us"},
		{"server.tcp_self_us", "L4 TCP round trip minus server Decide", &tcpSelf, "us"},
		{"server.udp_rtt_p50_us", "L4 UDP round trip p50", &udpRTT, "us"},
		{"server.udp_self_us", "L4 UDP round trip minus server Decide", &udpSelf, "us"},
		{"server.udp_ops_per_burst", "UDP ops per server burst (16 datagrams in flight)", &burst, "ratio"},
		{"runtime.allocs_per_op", "L2 allocations per op", &allocs, "count"},
	} {
		med, sp := x.r.stats()
		rep.set(x.metric, med, x.unit)
		rep.info("ladder %s: %.4g %s (median of %d, spread %.2f)", x.label, med, x.unit, len(x.r.vals), sp)
	}
	d1, _ := l1.stats()
	d2, _ := l2.stats()
	rep.set("server.decide_overhead_ns_per_op", d2-d1, "ns")
	rep.set("server.udp_timeouts", float64(udpTimeouts), "count")
	rep.set("server.udp_drops", float64(udpDrops), "count")

	stBefore, coldBefore = st.Stats(), coldSnap(tg)
	s1, s2 := scaling(tg, clients, nb/2)
	if err := steadyCheck(w, "scaling", tg, stBefore, coldBefore, rep); err != nil {
		return err
	}
	rep.set("linkstore.scaling_2v1", s1, "ratio")
	rep.set("server.decide_scaling_2v1", s2, "ratio")
	return nil
}

// steadyCheck prints what the store did during a rung run on the served
// instance, and refuses a serve-churn rung that never restored a link
// from disk: it would not have measured the cold path it stands for.
func steadyCheck(w *servingWorkload, what string, tg *target, a linkstore.Stats, ca coldstore.Stats, rep *report) error {
	b, cb := tg.srv.Store().Stats(), coldSnap(tg)
	ops := float64(max(1, (b.Hits+b.Creates+b.Restores)-(a.Hits+a.Creates+a.Restores)))
	rep.info("%s on the served store: %.0f ops, %.1f creates, %.1f restores, %.1f evictions, %.1f disk restores, %.1f disk spills per kop",
		what, ops, 1000*float64(b.Creates-a.Creates)/ops, 1000*float64(b.Restores-a.Restores)/ops,
		1000*float64(b.Evictions-a.Evictions)/ops, 1000*float64(cb.Restores-ca.Restores)/ops, 1000*float64(cb.Spills-ca.Spills)/ops)
	if w.name == "serve-churn" && cb.Restores == ca.Restores {
		return fmt.Errorf("vacuous run: %s saw no disk restores", what)
	}
	return nil
}

func ctlName(a ctl.Algo) string {
	if s, ok := ctl.Lookup(a); ok {
		return s.Name
	}
	return fmt.Sprintf("algo%d", a)
}

// splitByAlgo collects the ops of batches [from, from+n) per algorithm,
// keeping each link's order.
func splitByAlgo(s *stream, from, n int) map[ctl.Algo][]linkstore.Op {
	out := map[ctl.Algo][]linkstore.Op{}
	for b := from; b < from+n; b++ {
		for _, op := range s.batchAt(b) {
			out[op.Algo] = append(out[op.Algo], op)
		}
	}
	return out
}

// udpView re-cuts a stream into 8-record datagrams.
func udpView(s *stream) *stream { return &stream{ops: s.ops, batch: udpBatch} }

// transportRung times stop-and-wait round trips of batches [from,
// from+n) on a fresh server, and the round trip minus the server's mean
// Decide time for a batch.
func transportRung(build func(string) (*target, error), s *stream, from, n int, log *spanLog) (rttP50, selfUS float64, err error) {
	tg, err := build("")
	if err != nil {
		return 0, 0, err
	}
	defer tg.stop()
	ep, err := tg.dial()
	if err != nil {
		return 0, 0, err
	}
	defer ep.close()
	c := &client{s: s, ep: ep, next: from}
	rtts := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		t0 := nanotime()
		if err := c.ep.submit(c.s.batchAt(c.next)); err != nil {
			return 0, 0, err
		}
		c.next++
		if err := c.collect(); err != nil {
			return 0, 0, err
		}
		t1 := nanotime()
		log.add(0, "submit-wait", t0, t1)
		rtts = append(rtts, time.Duration(t1-t0))
	}
	sortDurations(rtts)
	var decide time.Duration
	if st := tg.srv.Status(); len(st.Algos) > 0 {
		decide = time.Duration(st.Algos[0].BatchLatency.MeanNs)
	}
	p50 := quantile(rtts, 0.5)
	return us(p50), us(p50 - decide), nil
}

// udpBurstRung keeps 16 datagrams in flight from one client and returns
// the ops the server decided per burst, the client's timeouts and the
// server's dropped datagrams.
func udpBurstRung(s *stream, n int) (perBurst float64, timeouts, drops uint64, err error) {
	tg, err := buildUDP("")
	if err != nil {
		return 0, 0, 0, err
	}
	defer tg.stop()
	ep, err := tg.dial()
	if err != nil {
		return 0, 0, 0, err
	}
	c := &client{s: s, ep: ep}
	limit := 4 * n
	err = c.pump(udpWindow, func() bool { return c.next < limit }, nil)
	ep.close()
	st := tg.srv.Status().UDP
	return float64(limit*udpBatch) / float64(max(1, st.Bursts)), ep.(*udpEndpoint).stats.Timeouts, st.Drops, err
}

// scaling returns ApplyBatch and Decide throughput at GOMAXPROCS 2 over
// the same at 1. Both clients continue their streams concurrently on the
// served instance, in slices of n batches each that cycle through the
// four settings, so host drift reaches every setting alike; the answers
// join the clients' logs.
func scaling(tg *target, clients []*client, n int) (store, decide float64) {
	slice := func(procs int, useDecide bool) time.Duration {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		var wg sync.WaitGroup
		t0 := time.Now()
		for _, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out := make([]int32, c.s.batch)
				for i := 0; i < n; i++ {
					ops := c.s.batchAt(c.next)
					tg.tick(len(ops))
					if useDecide {
						c.record(tg.srv.Decide(ops, out))
					} else {
						c.record(tg.srv.Store().ApplyBatch(ops, out))
					}
					c.next++
				}
			}()
		}
		wg.Wait()
		return time.Since(t0)
	}
	// t[decide][procs-1]; the order of the two proc counts alternates.
	var t [2][2]time.Duration
	for cycle := 0; cycle < 4; cycle++ {
		for i, useDecide := range []bool{false, true} {
			for j := range 2 {
				p := (j+cycle)%2 + 1
				t[i][p-1] += slice(p, useDecide)
			}
		}
	}
	return float64(t[0][0]) / float64(t[0][1]), float64(t[1][0]) / float64(t[1][1])
}

// --- simulation ---

// traceSimRegen is sim-regen's traced run: every figure under a span
// and the CPU profiler, then the decoder, PHY-chain, fading and trace
// kernels on their own.
func traceSimRegen(opt options, rep *report) error {
	logs := newSpanLogs(1)
	log := logs[0]
	rep.Host.StreamDigest = fmt.Sprintf("experiments seed %d", regenSeed)

	// Tracing overhead: one PHY figure plain and under the profiler,
	// interleaved three times.
	probe := regenFigure{id: "fig10", half: "phy"}
	var plain, traced rung
	for i := 0; i < 3; i++ {
		plain.add(regenerate(probe, 0.3).wall.Seconds())
		if _, err := profiled(func() error { traced.add(regenerate(probe, 0.3).wall.Seconds()); return nil }); err != nil {
			return err
		}
	}
	pm, _ := plain.stats()
	tm, _ := traced.stats()
	rep.set("driver.trace_overhead_frac", tm/pm-1, "ratio")

	failed := 0
	cpu0, t0 := cpuSeconds(), time.Now()
	prof, err := profiled(func() error {
		for _, f := range regenFigures {
			s := nanotime()
			r := regenerate(f, f.scale)
			log.add(0, "experiments.Run:"+f.id, s, nanotime())
			if err := checkDigest(r); err != nil {
				failed++
				rep.info("digest mismatch: %v", err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	wall := time.Since(t0).Seconds()
	rep.set("experiments.cpu_util", (cpuSeconds()-cpu0)/(wall*float64(runtime.GOMAXPROCS(0))), "ratio")
	if err := reportShares(rep, prof); err != nil {
		return err
	}

	// Decoder kernel: the Fig 7/9 payload, batches of 8, log-MAP.
	const nInfo = (240 + 4) * 8
	jobs := make([]coding.BatchJob, 8)
	for i := range jobs {
		jobs[i] = coding.BatchJob{LLRs: fig79LLRs(nInfo, int64(i)), NInfo: nInfo}
	}
	var bdec coding.BatchWorkspace
	frames := 0
	start := time.Now()
	for ; time.Since(start) < time.Second; frames += len(jobs) {
		s := nanotime()
		bdec.DecodeBCJRBatch(jobs, coding.LogMAP)
		log.add(0, "DecodeBCJRBatch", s, nanotime())
	}
	rep.set("coding.bcjr_frames_per_s", float64(frames)/time.Since(start).Seconds(), "1/s")

	// PHY chain: transmit, channel, batched receive, SoftPHY BER.
	cfg := phy.DefaultConfig()
	ws := phy.NewWorkspace()
	link := &phy.Link{Cfg: cfg, Model: channel.NewStaticModel(14, nil), Rng: rand.New(rand.NewSource(2)), WS: ws}
	payload := make([]byte, 240)
	rand.New(rand.NewSource(1)).Read(payload)
	frame := phy.Frame{Header: []byte{9, 9, 9, 9}, Payload: payload, Rate: rate.ByIndex(4)}
	frames = 0
	start = time.Now()
	for time.Since(start) < time.Second {
		for k := 0; k < 8; k++ {
			link.QueueDeliver(phy.TransmitWS(ws, cfg, frame), float64(frames+k)*0.01, nil)
		}
		for _, rx := range link.FlushDeliveries() {
			if rx.Detected {
				_ = softphy.FrameBER(rx.Hints)
			}
		}
		frames += 8
	}
	rep.set("phy.chain_frames_per_s", float64(frames)/time.Since(start).Seconds(), "1/s")

	// Fading: Rayleigh gain evaluations.
	ray := channel.NewRayleigh(rand.New(rand.NewSource(3)), 40, 0)
	calls := 0
	var sink complex128
	start = time.Now()
	for time.Since(start) < 300*time.Millisecond {
		for k := 0; k < 1024; k++ {
			sink += ray.Gain(float64(calls+k) * 1e-4)
		}
		calls += 1024
	}
	rep.set("channel.gain_ns_per_call", float64(time.Since(start))/float64(calls), "ns")
	_ = sink

	// Trace generation: one walking-speed trace of 0.5 s.
	s := nanotime()
	model := channel.NewStaticModel(18, channel.NewRayleigh(rand.New(rand.NewSource(4)), 40, 0))
	trace.Generate(trace.GenConfig{Model: model, Duration: 0.5, Seed: 5})
	e := nanotime()
	log.add(0, "trace.Generate", s, e)
	rep.set("trace.generate_s", float64(e-s)/1e9, "s")

	path := filepath.Join(opt.buildDir, fmt.Sprintf("spans-sim-regen-%d.csv", opt.seed))
	n, _, err := writeSpans(path, logs)
	if err != nil {
		return err
	}
	rep.info("%d spans written to %s", n, path)
	fillAbsent(rep, "sim-regen runs no serving path")
	rep.Attempted = int64(len(regenFigures))
	rep.Failed = int64(failed)
	rep.Correct = failed == 0
	return nil
}

// fig79LLRs are channel LLRs for a random Fig 7/9-sized payload.
func fig79LLRs(nInfo int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed + 3))
	info := make([]byte, nInfo)
	for i := range info {
		info[i] = byte(rng.Intn(2))
	}
	coded := coding.Encode(info)
	llrs := make([]float64, len(coded))
	for i, b := range coded {
		x := -1.0
		if b != 0 {
			x = 1.0
		}
		llrs[i] = 2 * (x + 0.7*rng.NormFloat64()) / (0.7 * 0.7)
	}
	return llrs
}
