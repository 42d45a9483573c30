package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"strings"
	"sync"
	"testing"
	"time"

	"softrate/internal/coldstore"
	"softrate/internal/core"
	"softrate/internal/experiments"
)

// testPools caches trace pools by seed, so tests that build many small
// streams generate each seed's traces once.
var testPools sync.Map

func poolFor(seed int64) tracePool {
	if p, ok := testPools.Load(seed); ok {
		return p.(tracePool)
	}
	p, _ := testPools.LoadOrStore(seed, newTracePool(seed))
	return p.(tracePool)
}

func TestStreamDigestFollowsSeed(t *testing.T) {
	hs := hotSpec{links: 64, batch: 8, n: 32, zipfS: 1.1}
	cs := churnSpec{hot: 32, idle: 64, batch: 8, idleN: 2}
	for name, gen := range map[string]func(seed int64) []*stream{
		"hot": func(seed int64) []*stream {
			return genStreams(2, func(c int) *stream { return genHot(seed, c, hs, poolFor(seed)) })
		},
		"churn": func(seed int64) []*stream {
			return genStreams(2, func(c int) *stream { return genChurn(seed, c, cs, poolFor(seed)) })
		},
	} {
		a, b, c := digest(gen(1)), digest(gen(1)), digest(gen(2))
		if a != b {
			t.Errorf("%s: seed 1 gave digests %s and %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 both gave digest %s", name, a)
		}
	}
}

// TestStreamFollowsDecisions checks that the streams close the loop:
// replayed twice through the reference controllers, nearly every op after
// a link's first was sent at the rate the reference chose on the link's
// previous op. (Not every one: the generator's controller has sent
// burnIn frames more than the reference has, and SampleRate samples.)
func TestStreamFollowsDecisions(t *testing.T) {
	cs := churnSpec{hot: 64, idle: 256, batch: 16, idleN: 2}
	for name, s := range map[string]*stream{
		"hot":   genHot(5, 0, hotSpec{links: 32, batch: 8, n: 256, zipfS: 1.1}, poolFor(5)),
		"churn": genChurn(5, 1, cs, poolFor(5)),
	} {
		o := newOracle()
		last := map[uint64]int{}
		kinds := map[core.FeedbackKind]int{}
		for lap := 0; lap < 2; lap++ {
			repeats, closed := 0, 0
			for i := range s.ops {
				op := &s.ops[i]
				if prev, ok := last[op.LinkID]; ok {
					repeats++
					if int(op.RateIndex) == prev {
						closed++
					}
				}
				last[op.LinkID] = o.apply(op)
				kinds[op.Kind]++
			}
			if share := float64(closed) / float64(repeats); share < 0.9 {
				t.Errorf("%s lap %d: %.3f of %d repeat ops sent at the reference's previous choice", name, lap, share, repeats)
			}
		}
		if len(kinds) != int(core.NumKinds) {
			t.Errorf("%s: feedback kinds %v, want all %d", name, kinds, core.NumKinds)
		}
	}
}

func TestClientsOwnDisjointLinks(t *testing.T) {
	ss := genStreams(2, func(c int) *stream {
		return genChurn(3, c, churnSpec{hot: 32, idle: 64, batch: 8, idleN: 2}, poolFor(3))
	})
	owner := map[uint64]int{}
	for c, s := range ss {
		for _, op := range s.ops {
			if o, ok := owner[op.LinkID]; ok && o != c {
				t.Fatalf("link %#x used by clients %d and %d", op.LinkID, o, c)
			}
			owner[op.LinkID] = c
		}
	}
}

func TestTableDigestCatchesChangedCell(t *testing.T) {
	mk := func() []*experiments.Table {
		return []*experiments.Table{{
			ID: "fig0", Title: "t", Header: []string{"a", "b"},
			Rows: [][]string{{"1", "2"}, {"3", "4"}}, Notes: []string{"n"},
		}}
	}
	want := tableDigest(mk())
	if got := tableDigest(mk()); got != want {
		t.Fatalf("same tables, digests %s and %s", got, want)
	}
	changed := mk()
	changed[0].Rows[1][0] = "3.0"
	if tableDigest(changed) == want {
		t.Fatal("changed table cell left the digest unchanged")
	}
	r := regenResult{fig: regenFigure{id: "fig7"}, digest: tableDigest(changed)}
	if checkDigest(r) == nil {
		t.Fatal("checkDigest accepted a digest that is not the expected one")
	}
}

func TestCompareRefusesOtherHostShape(t *testing.T) {
	a := hostStamp{NumCPU: 2, GOMAXPROCS: 2, CPUModel: "x", Workload: "serve-tcp", Seconds: 20}
	if err := comparable(a, a); err != nil {
		t.Fatalf("identical stamps refused: %v", err)
	}
	for _, mut := range []func(*hostStamp){
		func(h *hostStamp) { h.NumCPU = 1 },
		func(h *hostStamp) { h.GOMAXPROCS = 1 },
		func(h *hostStamp) { h.CPUModel = "y" },
		func(h *hostStamp) { h.Workload = "serve-churn" },
		func(h *hostStamp) { h.Seconds = 10 },
	} {
		b := a
		mut(&b)
		if comparable(a, b) == nil {
			t.Errorf("stamps %+v and %+v compared", a, b)
		}
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"softrate/internal/linkstore.(*Store).ApplyBatchStats": "linkstore",
		"softrate/internal/core.(*SoftRate).OnFeedback":        "ctl",
		"softrate/internal/ratectl.(*SampleRate).OnResult":     "ctl",
		"softrate/internal/coding.(*BatchWorkspace).step":      "coding",
		"softrate/internal/softphy.FrameBER":                   "other",
		"softrate/perfbench.(*oracle).apply":                   "perfbench",
		"runtime.mallocgc":                                     "runtime",
		"internal/runtime/syscall.Syscall6":                    "transport",
		"internal/poll.(*FD).Read":                             "transport",
		"math.archExp":                                         "other",
		"runtime.mapaccess2_fast64":                            "helper",
		"internal/runtime/maps.h2":                             "helper",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %s, want %s", fn, got, want)
		}
	}
}

// spin keeps a CPU busy in this package, for the profile parser test.
func spin(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestCPUSharesAttributesProfile(t *testing.T) {
	prof, err := profiled(func() error { spin(300 * time.Millisecond); return nil })
	if err != nil {
		t.Fatal(err)
	}
	shares, _, err := cpuShares(prof)
	if err != nil {
		t.Fatal(err)
	}
	if shares["perfbench"] < 0.5 {
		t.Fatalf("a busy loop in this package got %.2f of the profile: %v", shares["perfbench"], shares)
	}
}

func TestChargeOf(t *testing.T) {
	for _, c := range []struct {
		stack []string // leaf first
		want  string
	}{
		{[]string{"softrate/internal/experiments.(*pool).run", "runtime.goexit"}, "other"},
		{[]string{"math.archExp", "softrate/internal/softphy.FrameBER", "runtime.main"}, "other"},
		{[]string{"math.archExp", "softrate/internal/channel.(*Rayleigh).Gain", "runtime.goexit"}, "channel"},
		{[]string{"runtime.mapaccess2_fast64", "softrate/internal/linkstore.(*shard).get", "runtime.goexit"}, "linkstore"},
		{[]string{"runtime.mapaccess2_fast64", "softrate/internal/experiments.run", "runtime.goexit"}, "other"},
		{[]string{"runtime.mallocgc", "softrate/internal/linkstore.(*shard).get", "runtime.goexit"}, "runtime"},
		{[]string{"runtime.memmove", "runtime.growslice", "softrate/internal/server.x"}, "runtime"},
		{[]string{"runtime.findRunnable", "runtime.schedule", "runtime.mcall"}, "runtime"},
		{[]string{"runtime.memmove"}, "runtime"},
	} {
		if got := chargeOf(c.stack); got != c.want {
			t.Errorf("chargeOf(%q) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// pbField appends one protobuf field: a varint, or length-delimited
// bytes when b is non-nil.
func pbField(dst []byte, field int, v uint64, b []byte) []byte {
	if b == nil {
		return binary.AppendUvarint(binary.AppendUvarint(dst, uint64(field)<<3), v)
	}
	dst = binary.AppendUvarint(binary.AppendUvarint(dst, uint64(field)<<3|2), uint64(len(b)))
	return append(dst, b...)
}

// encodeProfile builds a gzipped CPU profile with one sample of the given
// value per stack (leaf first), one function and location per name.
func encodeProfile(t *testing.T, stacks [][]string, values []int64) []byte {
	t.Helper()
	var p []byte
	strs := []string{""}
	ids := map[string]uint64{}
	for _, st := range stacks {
		for _, fn := range st {
			if ids[fn] == 0 {
				strs = append(strs, fn)
				id := uint64(len(strs) - 1)
				ids[fn] = id
				fnMsg := pbField(pbField(nil, 1, id, nil), 2, id, nil)
				p = pbField(p, 5, 0, fnMsg)
				line := pbField(nil, 1, id, nil)
				p = pbField(p, 4, 0, pbField(pbField(nil, 1, id, nil), 4, 0, line))
			}
		}
	}
	for i, st := range stacks {
		var locs []byte
		for _, fn := range st {
			locs = binary.AppendUvarint(locs, ids[fn])
		}
		vals := binary.AppendUvarint(binary.AppendUvarint(nil, 1), uint64(values[i]))
		p = pbField(p, 2, 0, pbField(pbField(nil, 1, 0, locs), 2, 0, vals))
	}
	for _, s := range strs {
		p = pbField(p, 6, 0, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(p)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCPUSharesKeepsUnnamedTimeOutOfRuntime(t *testing.T) {
	prof := encodeProfile(t, [][]string{
		{"softrate/internal/experiments.(*pool).run", "runtime.goexit"},
		{"softrate/internal/coding.(*BatchWorkspace).step", "runtime.goexit"},
		{"runtime.gcBgMarkWorker", "runtime.goexit"},
	}, []int64{6, 3, 1})
	shares, others, err := cpuShares(prof)
	if err != nil {
		t.Fatal(err)
	}
	if shares["other"] != 0.6 || shares["coding"] != 0.3 || shares["runtime"] != 0.1 {
		t.Fatalf("shares %v, want other 0.6, coding 0.3, runtime 0.1", shares)
	}
	if len(others) != 1 || !strings.HasPrefix(others[0], "softrate/internal/experiments.(*pool).run ") {
		t.Fatalf("largest unattributed leaves %v", others)
	}
}

func TestGuardsRefuseVacuousRuns(t *testing.T) {
	ws := servingWorkloads()
	onTime := measured{late: []time.Duration{0, 0, 0}}
	if err := ws["serve-tcp"].guard(nil, coldstore.Stats{}, onTime); err != nil {
		t.Fatalf("on-time generator refused: %v", err)
	}
	late := measured{late: []time.Duration{0, 3 * time.Millisecond, 3 * time.Millisecond}}
	if ws["serve-tcp"].guard(nil, coldstore.Stats{}, late) == nil {
		t.Error("a generator late at p50 was accepted")
	}

	udp, err := buildUDP("")
	if err != nil {
		t.Fatal(err)
	}
	defer udp.stop()
	if ws["serve-udp"].guard(udp, coldstore.Stats{}, onTime) == nil {
		t.Error("serve-udp with no bursts was accepted")
	}

	churn, err := buildChurn(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer churn.stop()
	if ws["serve-churn"].guard(churn, churn.cold.Stats(), onTime) == nil {
		t.Error("serve-churn with no disk spills or restores was accepted")
	}
	if steadyCheck(ws["serve-churn"], "ladder", churn, churn.srv.Store().Stats(), churn.cold.Stats(), &report{}) == nil {
		t.Error("a serve-churn rung with no disk restores was accepted")
	}
}

// TestScalingRecordsCheckedAnswers runs the scaling slices (both clients
// concurrently, GOMAXPROCS switching between slices) on a churn store
// and checks every answer they logged against the oracle.
func TestScalingRecordsCheckedAnswers(t *testing.T) {
	cs := churnSpec{hot: 64, idle: 256, batch: 16, idleN: 2}
	tg, err := buildChurn(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer tg.stop()
	clients := make([]*client, 2)
	for c := range clients {
		clients[c] = &client{s: genChurn(9, c, cs, poolFor(9))}
	}
	scaling(tg, clients, 8)
	o := newOracle()
	for c, cl := range clients {
		if len(cl.answers) != 16*8*cs.batch {
			t.Fatalf("client %d logged %d answers, want %d", c, len(cl.answers), 16*8*cs.batch)
		}
		if v := o.check(cl.s, cl.answers); v.mismatched != 0 {
			t.Fatalf("client %d: %d of %d decisions differ; first %s", c, v.mismatched, v.checked, v.first)
		}
	}
}
