package main

import (
	"testing"
	"time"

	"softrate/internal/coldstore"
	"softrate/internal/ctl"
	"softrate/internal/linkstore"
)

// testStream is a small SoftRate stream over a few links, so every link
// sees long feedback sequences.
func testStream(t *testing.T) *stream {
	t.Helper()
	return genHot(42, 0, hotSpec{links: 8, batch: 16, n: 64, zipfS: 1.1}, poolFor(42))
}

// faithful answers every op through long-lived bare controllers, one per
// link — a different code path from the oracle's encoded-state mirror.
type faithful struct{ ctrls map[uint64]ctl.Controller }

func newFaithful() *faithful { return &faithful{ctrls: map[uint64]ctl.Controller{}} }

func (f *faithful) ctrl(op *linkstore.Op) ctl.Controller {
	c, ok := f.ctrls[op.LinkID]
	if !ok {
		c = ctl.New(op.Algo)
		f.ctrls[op.LinkID] = c
	}
	return c
}

func (f *faithful) apply(op *linkstore.Op) byte {
	return byte(f.ctrl(op).Apply(feedbackOf(op)))
}

// serveWith answers the stream's ops through a system that is faithful
// except that fault(i, op, f) may misbehave at op i; fault returns the
// answer for op i and whether it handled the op itself.
func serveWith(s *stream, fault func(i int, f *faithful) (byte, bool)) []byte {
	f := newFaithful()
	out := make([]byte, len(s.ops))
	for i := range s.ops {
		if fault != nil {
			if a, ok := fault(i, f); ok {
				out[i] = a
				continue
			}
		}
		out[i] = f.apply(&s.ops[i])
	}
	return out
}

// firstObservable returns the first op position ≥ from at which the fault
// changes some decision (a fault no decision reveals is equivalent
// behaviour, not a defect), and the faulty answers.
func firstObservable(t *testing.T, s *stream, from int, fault func(j int) func(i int, f *faithful) (byte, bool)) (int, []byte) {
	t.Helper()
	good := serveWith(s, nil)
	for j := from; j < len(s.ops)-1; j++ {
		bad := serveWith(s, fault(j))
		for i := range bad {
			if bad[i] != good[i] {
				return j, bad
			}
		}
	}
	t.Fatal("no position where the fault changes a decision")
	return 0, nil
}

// nextOnLink returns the position of the next op on op j's link.
func nextOnLink(s *stream, j int) int {
	for k := j + 1; k < len(s.ops); k++ {
		if s.ops[k].LinkID == s.ops[j].LinkID {
			return k
		}
	}
	return -1
}

func TestOracleAcceptsFaithfulAnswers(t *testing.T) {
	s := testStream(t)
	if v := newOracle().check(s, serveWith(s, nil)); v.mismatched != 0 || v.checked != len(s.ops) || v.repeats == 0 || v.closed == 0 {
		t.Fatalf("faithful answers: %+v", v)
	}
}

// TestOracleAcceptsStoreWithColdTier drives the real link store, with a
// disk tier small enough that links spill and restore throughout, and
// checks the oracle agrees with every decision.
func TestOracleAcceptsStoreWithColdTier(t *testing.T) {
	cs := churnSpec{hot: 64, idle: 512, batch: 16, idleN: 2}
	s := genChurn(7, 0, cs, poolFor(7))
	cold, err := coldstore.Open(coldstore.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	var clock int64
	st := linkstore.New(linkstore.Config{
		Shards: 4, TTL: time.Millisecond, Cold: cold, ColdFront: 32,
		Clock: func() int64 { return clock * 1000 },
	})
	out := make([]int32, cs.batch)
	var answers []byte
	for b := 0; b < 3*s.batches(); b++ {
		clock += int64(cs.batch)
		for _, r := range st.ApplyBatch(s.batchAt(b), out) {
			answers = append(answers, byte(r))
		}
	}
	if cst := cold.Stats(); cst.Spills == 0 || cst.Restores == 0 {
		t.Fatalf("workload did not reach the disk tier: %+v", cst)
	}
	if v := newOracle().check(s, answers); v.mismatched != 0 {
		t.Fatalf("store with cold tier: %d of %d decisions differ; first %s", v.mismatched, v.checked, v.first)
	}
}

func TestOracleCatchesFlippedDecision(t *testing.T) {
	s := testStream(t)
	ans := serveWith(s, nil)
	ans[len(ans)/2] ^= 1
	if v := newOracle().check(s, ans); v.mismatched != 1 {
		t.Fatalf("flipped decision: %+v", v)
	}
}

func TestOracleCatchesDroppedOp(t *testing.T) {
	s := testStream(t)
	// The op is answered with the link's current rate but never applied.
	j, bad := firstObservable(t, s, 10, func(j int) func(int, *faithful) (byte, bool) {
		return func(i int, f *faithful) (byte, bool) {
			if i != j {
				return 0, false
			}
			return byte(f.ctrl(&s.ops[i]).NextRate(0)), true
		}
	})
	if v := newOracle().check(s, bad); v.mismatched == 0 {
		t.Fatalf("dropped op %d not caught", j)
	}
}

func TestOracleCatchesReorderedOp(t *testing.T) {
	s := testStream(t)
	// Op j and the link's next op are applied in swapped order; each
	// answer lands at its own position.
	j, bad := firstObservable(t, s, 10, func(j int) func(int, *faithful) (byte, bool) {
		k := nextOnLink(s, j)
		var kAnswer byte
		return func(i int, f *faithful) (byte, bool) {
			switch {
			case k < 0:
				return 0, false
			case i == j:
				kAnswer = f.apply(&s.ops[k])
				return f.apply(&s.ops[j]), true
			case i == k:
				return kAnswer, true
			}
			return 0, false
		}
	})
	if v := newOracle().check(s, bad); v.mismatched == 0 {
		t.Fatalf("reordered op %d not caught", j)
	}
}

func TestOracleCatchesDuplicatedOp(t *testing.T) {
	s := testStream(t)
	j, bad := firstObservable(t, s, 10, func(j int) func(int, *faithful) (byte, bool) {
		return func(i int, f *faithful) (byte, bool) {
			if i != j {
				return 0, false
			}
			f.apply(&s.ops[i])
			return f.apply(&s.ops[i]), true
		}
	})
	if v := newOracle().check(s, bad); v.mismatched == 0 {
		t.Fatalf("duplicated op %d not caught", j)
	}
}

// TestOracleCatchesResurrectedState models the crash-after-restore
// hazard: a link's state is spilled at op i, restored and advanced, and a
// faulty tier later hands back the spill-time state again at op j.
func TestOracleCatchesResurrectedState(t *testing.T) {
	s := testStream(t)
	const spillAt = 5
	link := s.ops[spillAt].LinkID
	j, bad := firstObservable(t, s, spillAt+1, func(j int) func(int, *faithful) (byte, bool) {
		var spilled []byte
		return func(i int, f *faithful) (byte, bool) {
			op := &s.ops[i]
			if op.LinkID != link {
				return 0, false
			}
			c := f.ctrl(op)
			if i == spillAt {
				a := f.apply(op)
				spilled = make([]byte, c.StateLen())
				c.EncodeState(spilled)
				return a, true
			}
			if i == j && spilled != nil {
				if err := c.DecodeState(spilled); err != nil {
					t.Fatal(err)
				}
			}
			return 0, false
		}
	})
	if v := newOracle().check(s, bad); v.mismatched == 0 {
		t.Fatalf("state resurrected at op %d not caught", j)
	}
}
