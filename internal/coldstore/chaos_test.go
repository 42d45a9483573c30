package coldstore

import (
	"bytes"
	"testing"

	"softrate/internal/faultfs"
)

// TestCompactOnceVictimReadFault: a read fault while rewriting a
// compaction victim must fail the compaction cleanly — (false, err),
// index untouched, every live record (including the victim's) still
// readable with its latest state — and a later retry on a healed disk
// must reclaim the segment. The background compactor is stopped before
// arming, so every compaction attempt is the test's own: otherwise a kick
// queued while the disk faulted can reclaim the segment between the heal
// and the explicit retry, and the retry finds nothing to do.
func TestCompactOnceVictimReadFault(t *testing.T) {
	inj := faultfs.Wrap(faultfs.OS{}, 13, faultfs.Rates{ReadErr: 1})
	inj.Arm(false)
	// The compact threshold is sized so the armed supersedes below cross
	// it. While reads fault, markDead cannot re-read a superseded
	// record's width and accounts only the frame overhead — so the dead
	// ratio of the 13-record sealed segment (64-byte states at 1 KiB
	// segments) grows by recOverhead/(13*(recOverhead+64)) per
	// supersede, not by a full record.
	const sealedRecs, stateW, superseded = 13, 64, 6
	ratio := superseded * float64(recOverhead) / (sealedRecs * float64(recOverhead+stateW))
	s := openT(t, t.TempDir(), Config{SegmentBytes: 1 << 10, CompactRatio: ratio * 0.99, FS: inj})

	// Fill past one rotation with unique ids: no dead bytes anywhere, so
	// nothing is compactable and the background compactor stays idle
	// while the injector is disarmed.
	const n = 24
	for id := uint64(1); id <= n; id++ {
		putOne(t, s, id, 1, stateFor(id, stateW))
	}
	if st := s.Stats(); st.Segments < 2 {
		t.Fatalf("need a sealed segment; got %d segments", st.Segments)
	}

	// Stop the compactor, arm, then supersede ids from the sealed segment:
	// the dead ratio crosses the threshold only now, so both compaction
	// attempts below run where the test puts them.
	stopCompactor(s)
	inj.Arm(true)
	super := make(map[uint64][]byte)
	for id := uint64(1); id <= superseded; id++ {
		state := stateFor(id+1000, stateW)
		putOne(t, s, id, 1, state)
		super[id] = state
	}
	progressed, err := s.CompactOnce()
	if progressed || err == nil {
		t.Fatalf("CompactOnce over a faulty disk: progressed=%v err=%v, want (false, error)", progressed, err)
	}
	if !faultfs.IsInjected(err) {
		t.Fatalf("CompactOnce error %v does not wrap the injected fault", err)
	}

	// Heal: no state was lost and the index still points at the latest
	// copy of every record.
	inj.Arm(false)
	check := func(when string) {
		t.Helper()
		for id := uint64(1); id <= n; id++ {
			want := stateFor(id, stateW)
			if w, ok := super[id]; ok {
				want = w
			}
			_, state, ok, err := s.Peek(id, nil)
			if err != nil || !ok {
				t.Fatalf("Peek(%d) %s: ok=%v err=%v", id, when, ok, err)
			}
			if !bytes.Equal(state, want) {
				t.Fatalf("link %d serves stale state %s", id, when)
			}
		}
	}
	check("after failed compaction")
	progressed, err = s.CompactOnce()
	if err != nil || !progressed {
		t.Fatalf("CompactOnce retry on a healed disk: progressed=%v err=%v", progressed, err)
	}
	check("after successful compaction")
}

// stopCompactor stops s's background compactor and waits for it to exit;
// compaction kicks then go unserved until the test calls CompactOnce.
// Close still works afterwards: it closes the fresh stop channel and its
// wait returns at once.
func stopCompactor(s *Store) {
	close(s.stopCh)
	s.done.Wait()
	s.stopCh = make(chan struct{})
}
