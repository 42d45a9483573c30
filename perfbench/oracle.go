package main

import (
	"fmt"

	"softrate/internal/ctl"
	"softrate/internal/linkstore"
)

// oracle is the reference every answered decision is checked against: a
// bare ctl controller per algorithm, driven through its encoded state
// (DecodeState → Apply → EncodeState) for each link in turn. It holds no
// store, no shards, no cold tier and no wire, so anything those layers
// drop, reorder, duplicate or resurrect shows up as a different decision.
// The flat encoded-state form keeps populations of hundreds of thousands
// of links (SampleRate states are ~1.7 KB) cheap to mirror.
type oracle struct {
	links map[uint64]mirrorRef
	slabs []*mirrorSlab // by algorithm ID
}

// mirrorRef locates a link's state: its algorithm's slab and its slot.
type mirrorRef struct {
	algo ctl.Algo
	slot int32
}

type mirrorSlab struct {
	ctrl   ctl.Controller
	width  int
	fresh  []byte
	states []byte
}

func newOracle() *oracle {
	return &oracle{links: map[uint64]mirrorRef{}, slabs: make([]*mirrorSlab, ctl.MaxID()+1)}
}

// state returns the link's encoded state, creating it fresh on first
// touch with the algorithm the first op names (as the store does).
func (o *oracle) state(op *linkstore.Op) (*mirrorSlab, []byte) {
	ref, ok := o.links[op.LinkID]
	if !ok {
		ref.algo = op.Algo
		if ref.algo == ctl.AlgoDefault {
			ref.algo = ctl.AlgoSoftRate
		}
	}
	sl := o.slabs[ref.algo]
	if sl == nil {
		c := ctl.New(ref.algo)
		sl = &mirrorSlab{ctrl: c, width: c.StateLen(), fresh: make([]byte, c.StateLen())}
		c.EncodeState(sl.fresh)
		o.slabs[ref.algo] = sl
	}
	if !ok {
		ref.slot = int32(len(sl.states) / sl.width)
		sl.states = append(sl.states, sl.fresh...)
		o.links[op.LinkID] = ref
	}
	return sl, sl.states[int(ref.slot)*sl.width : int(ref.slot+1)*sl.width]
}

// apply advances the link's mirror through op and returns the decision a
// bare controller makes.
func (o *oracle) apply(op *linkstore.Op) int {
	sl, st := o.state(op)
	if err := sl.ctrl.DecodeState(st); err != nil {
		// The slab only ever holds the controller's own EncodeState output.
		panic(fmt.Sprintf("perfbench: oracle state for link %d corrupt: %v", op.LinkID, err))
	}
	r := sl.ctrl.Apply(feedbackOf(op))
	sl.ctrl.EncodeState(st)
	return r
}

// feedbackOf is the controller's view of an op, as the store builds it.
func feedbackOf(op *linkstore.Op) ctl.Feedback {
	return ctl.Feedback{
		Kind:      op.Kind,
		RateIndex: int(op.RateIndex),
		BER:       op.BER,
		SNRdB:     float64(op.SNRdB),
		Airtime:   float64(op.Airtime),
		Delivered: op.Delivered,
	}
}

// verdict is the outcome of checking one client's answers.
type verdict struct {
	checked    int // decisions compared
	mismatched int // decisions that differ from the reference
	first      string
	// repeat ops (a link's second and later) and how many of them were
	// sent at the rate the reference chose on the link's previous op
	// (see closeLoop).
	repeats, closed int
}

// check replays ops i = 0.. of s through the oracle and compares each
// with got[i], the decision the system under test answered for it. A
// lostAnswer is skipped (its op already counts as failed) but still
// replayed, since the service may have applied it.
func (o *oracle) check(s *stream, got []byte) verdict {
	var v verdict
	last := map[uint64]int32{}
	for i, g := range got {
		op := s.op(i)
		want := o.apply(op)
		if prev, ok := last[op.LinkID]; ok {
			v.repeats++
			if prev == op.RateIndex {
				v.closed++
			}
		}
		last[op.LinkID] = int32(want)
		if g == lostAnswer {
			continue
		}
		v.checked++
		if int(g) != want {
			if v.mismatched == 0 {
				v.first = fmt.Sprintf("op %d (link %#x): answered rate %d, reference %d", i, op.LinkID, g, want)
			}
			v.mismatched++
		}
	}
	return v
}
