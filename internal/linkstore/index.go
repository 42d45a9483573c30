package linkstore

import (
	"softrate/internal/bitutil"
	"softrate/internal/ctl"
)

// minIndexSlots is the smallest table a shard starts with.
const minIndexSlots = 8

// index is one of a shard's link tables — the hot table, or a RAM-archive
// generation: open addressing with linear probing over a power-of-two
// array of 24-byte slots, at most 3/4 full.
// A link's probe starts at the bitutil.Mix64 bits above the shard mask —
// the bits the shard pick leaves unused — so the hash the router already
// computed serves both. An empty slot is one whose entry has algo ==
// ctl.AlgoDefault, which no live entry holds (links bind a registered
// algorithm at creation), so the table needs no tombstones and no
// occupancy bitmap: deletion shifts the rest of the cluster back instead.
// Layout depends only on the sequence of inserts and deletes, so a walk
// in slot order — the sweep's eviction order, and a spill's record order —
// is reproducible. A table with no slots (index{shift: s}) is empty and
// allocates on its first insert; find must not be called on it.
type index struct {
	slots []slot
	mask  uint64 // len(slots) - 1
	shift uint   // hash bits consumed by the shard pick
	n     int    // live entries
}

type slot struct {
	id uint64
	e  entry
}

func (s *slot) empty() bool { return s.e.algo == ctl.AlgoDefault }

// newIndex returns a table sized to hold hint entries without growing.
func newIndex(shift uint, hint int) index {
	n := minIndexSlots
	for n*3/4 < hint {
		n <<= 1
	}
	return index{slots: make([]slot, n), mask: uint64(n - 1), shift: shift}
}

// home is the first slot probed for hash h.
func (ix *index) home(h uint64) uint64 { return (h >> ix.shift) & ix.mask }

// find returns the entry of link id (hash h = bitutil.Mix64(id)) in place,
// or nil when the link is not in the table.
func (ix *index) find(id, h uint64) *entry {
	for i := ix.home(h); ; i = (i + 1) & ix.mask {
		s := &ix.slots[i]
		if s.empty() {
			return nil
		}
		if s.id == id {
			return &s.e
		}
	}
}

// take removes link id (hash h) from the table and returns its entry, or
// false when the link is not in the table.
func (ix *index) take(id, h uint64) (entry, bool) {
	if ix.n == 0 { // also covers a table with no slots
		return entry{}, false
	}
	for i := ix.home(h); ; i = (i + 1) & ix.mask {
		s := &ix.slots[i]
		if s.empty() {
			return entry{}, false
		}
		if s.id == id {
			e := s.e
			ix.removeAt(i)
			return e, true
		}
	}
}

// insert adds link id, which must be absent, and returns its entry in
// place. The pointer is valid until the next insert.
func (ix *index) insert(id, h uint64, e entry) *entry {
	if 4*(ix.n+1) > 3*len(ix.slots) {
		ix.grow()
	}
	ix.n++
	return ix.place(id, h, e)
}

// place writes an entry into the first empty slot of its probe sequence.
func (ix *index) place(id, h uint64, e entry) *entry {
	i := ix.home(h)
	for !ix.slots[i].empty() {
		i = (i + 1) & ix.mask
	}
	ix.slots[i] = slot{id: id, e: e}
	return &ix.slots[i].e
}

// grow doubles the table (or allocates the smallest one), re-placing
// entries in slot order.
func (ix *index) grow() {
	old := ix.slots
	ix.slots = make([]slot, max(2*len(old), minIndexSlots))
	ix.mask = uint64(len(ix.slots) - 1)
	for k := range old {
		if s := &old[k]; !s.empty() {
			ix.place(s.id, bitutil.Mix64(s.id), s.e)
		}
	}
}

// removeAt empties slot i by backward-shift deletion: each later entry of
// the cluster whose home is not between the hole and itself moves back
// into the hole, so every remaining entry stays reachable from its home
// without tombstones. An entry from later in the cluster may land in slot
// i, so a caller walking the slots must look at i again.
func (ix *index) removeAt(i uint64) {
	for j := i; ; {
		j = (j + 1) & ix.mask
		s := &ix.slots[j]
		if s.empty() {
			break
		}
		// s may fill the hole iff the hole lies on its probe path, i.e.
		// its home is at least as far behind j as the hole is.
		if (j-ix.home(bitutil.Mix64(s.id)))&ix.mask >= (j-i)&ix.mask {
			ix.slots[i] = *s
			i = j
		}
	}
	ix.slots[i] = slot{}
	ix.n--
}

// reset empties the table, keeping its capacity.
func (ix *index) reset() {
	clear(ix.slots)
	ix.n = 0
}
