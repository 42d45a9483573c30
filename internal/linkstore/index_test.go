package linkstore

import (
	"math/rand"
	"testing"
	"time"

	"softrate/internal/bitutil"
	"softrate/internal/ctl"
)

// unxorshift inverts x ^= x >> s.
func unxorshift(y uint64, s uint) uint64 {
	x := y
	for i := s; i < 64; i += s {
		x = y ^ x>>s
	}
	return x
}

// mulInverse returns the inverse of odd c modulo 2^64 (Newton's method:
// each step doubles the number of correct low bits, starting from 3).
func mulInverse(c uint64) uint64 {
	x := c
	for i := 0; i < 5; i++ {
		x *= 2 - c*x
	}
	return x
}

// unmix64 inverts bitutil.Mix64, so a test can pick a link's hash — its
// shard and its home slot — and derive the link ID that has it.
func unmix64(h uint64) uint64 {
	x := unxorshift(h, 31)
	x *= mulInverse(0x94d049bb133111eb)
	x = unxorshift(x, 27)
	x *= mulInverse(0xbf58476d1ce4e5b9)
	return unxorshift(x, 30)
}

// idWithHome returns a link ID whose hash puts it in shard 0 of a store
// with 1<<shift shards and, in a table of `slots` slots, at home slot
// `home`. salt picks among the many such IDs.
func idWithHome(shift uint, slots int, home uint64, salt uint64) uint64 {
	b := uint(0)
	for 1<<b < slots {
		b++
	}
	return unmix64(salt<<(shift+b) | home<<shift)
}

func TestUnmix64InvertsMix64(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		x := rng.Uint64()
		if got := unmix64(bitutil.Mix64(x)); got != x {
			t.Fatalf("unmix64(Mix64(%#x)) = %#x", x, got)
		}
	}
}

// testEntry is a distinguishable live entry for link number k.
func testEntry(k int) entry {
	e := entry{lastUsed: uint32(k), algo: ctl.Algo(1 + k%5)}
	e.state[0] = byte(k)
	return e
}

// slotOf returns the slot holding link id.
func slotOf(ix *index, id uint64) (uint64, bool) {
	for i := ix.home(bitutil.Mix64(id)); ; i = (i + 1) & ix.mask {
		if ix.slots[i].empty() {
			return 0, false
		}
		if ix.slots[i].id == id {
			return i, true
		}
	}
}

// checkIndex asserts the table holds exactly ref, and that every entry is
// reachable: no empty slot between an entry's home and its slot.
func checkIndex(t *testing.T, ix *index, ref map[uint64]entry) {
	t.Helper()
	if ix.n != len(ref) {
		t.Fatalf("table holds %d entries, reference %d", ix.n, len(ref))
	}
	if 4*ix.n > 3*len(ix.slots) {
		t.Fatalf("load %d/%d is above 3/4", ix.n, len(ix.slots))
	}
	occupied := 0
	for i := range ix.slots {
		s := &ix.slots[i]
		if s.empty() {
			continue
		}
		occupied++
		want, ok := ref[s.id]
		if !ok {
			t.Fatalf("slot %d holds link %#x, absent from the reference", i, s.id)
		}
		if s.e != want {
			t.Fatalf("link %#x: entry %+v, want %+v", s.id, s.e, want)
		}
		for j := ix.home(bitutil.Mix64(s.id)); j != uint64(i); j = (j + 1) & ix.mask {
			if ix.slots[j].empty() {
				t.Fatalf("link %#x in slot %d is cut off from its home by empty slot %d", s.id, i, j)
			}
		}
	}
	if occupied != ix.n {
		t.Fatalf("%d occupied slots, count says %d", occupied, ix.n)
	}
	for id, want := range ref {
		e := ix.find(id, bitutil.Mix64(id))
		if e == nil || *e != want {
			t.Fatalf("find(%#x) = %v, want %+v", id, e, want)
		}
	}
}

func TestIndexMatchesMap(t *testing.T) {
	const shift = 3 // as in an 8-shard store
	cases := []struct {
		name  string
		homes []uint64 // home slots in an 8-slot table, in insert order
	}{
		{"collide", []uint64{2, 2, 2, 2, 2, 2}},
		{"wrap", []uint64{7, 7, 7, 7, 7, 7}},
		{"wrap mixed homes", []uint64{6, 7, 6, 0, 7, 1}},
		{"runs meet", []uint64{1, 1, 3, 3, 2, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ids := make([]uint64, len(tc.homes))
			for k, h := range tc.homes {
				ids[k] = idWithHome(shift, minIndexSlots, h, uint64(k+1))
			}
			build := func() (index, map[uint64]entry) {
				ix := newIndex(shift, 0)
				ref := map[uint64]entry{}
				for k, id := range ids {
					ix.insert(id, bitutil.Mix64(id), testEntry(k))
					ref[id] = testEntry(k)
				}
				if len(ix.slots) != minIndexSlots {
					t.Fatalf("table grew to %d slots for %d entries", len(ix.slots), len(ids))
				}
				return ix, ref
			}
			ix, ref := build()
			checkIndex(t, &ix, ref)
			// Delete each link in turn from a fresh copy: every position
			// of the cluster, wrapped or not.
			for _, victim := range ids {
				ix, ref := build()
				i, ok := slotOf(&ix, victim)
				if !ok {
					t.Fatalf("link %#x not found", victim)
				}
				ix.removeAt(i)
				delete(ref, victim)
				checkIndex(t, &ix, ref)
				// Deleting down to empty keeps every survivor reachable.
				for _, id := range ids {
					if j, ok := slotOf(&ix, id); ok {
						ix.removeAt(j)
						delete(ref, id)
						checkIndex(t, &ix, ref)
					}
				}
			}
		})
	}
	t.Run("growth", func(t *testing.T) {
		ix := newIndex(shift, 0)
		ref := map[uint64]entry{}
		rng := rand.New(rand.NewSource(2))
		for k := 0; k < 1000; k++ {
			// Every link homes to the last slot of the starting table, so
			// each doubling re-places long wrapped clusters.
			id := idWithHome(shift, minIndexSlots, minIndexSlots-1, rng.Uint64())
			if _, dup := ref[id]; dup {
				continue
			}
			p := ix.insert(id, bitutil.Mix64(id), testEntry(k))
			if *p != testEntry(k) {
				t.Fatalf("insert returned %+v, want %+v", *p, testEntry(k))
			}
			ref[id] = testEntry(k)
		}
		checkIndex(t, &ix, ref)
		if len(ix.slots) != 2048 {
			t.Fatalf("1000 links in %d slots, want 2048 (3/4 max load)", len(ix.slots))
		}
	})
	t.Run("no slots", func(t *testing.T) {
		// An archive table of a store without a TTL starts with no slots.
		ix := index{shift: shift}
		id := idWithHome(shift, minIndexSlots, 3, 1)
		if _, ok := ix.take(id, bitutil.Mix64(id)); ok {
			t.Fatal("take found a link in a table with no slots")
		}
		ix.insert(id, bitutil.Mix64(id), testEntry(1))
		if len(ix.slots) != minIndexSlots {
			t.Fatalf("first insert allocated %d slots, want %d", len(ix.slots), minIndexSlots)
		}
		checkIndex(t, &ix, map[uint64]entry{id: testEntry(1)})
	})
	t.Run("presize", func(t *testing.T) {
		for _, tc := range []struct{ hint, slots int }{{0, 8}, {6, 8}, {7, 16}, {12, 16}, {13, 32}, {1000, 2048}} {
			if got := len(newIndex(0, tc.hint).slots); got != tc.slots {
				t.Errorf("newIndex(hint %d) has %d slots, want %d", tc.hint, got, tc.slots)
			}
		}
	})
}

// FuzzIndex drives a shard's three tables — the hot table and two
// archive generations — over a small pool of links that collide in and
// wrap around the end of a small table: inserts, lookups and deletes on
// the hot table, evictions and revivals that move entries between tables,
// and generation rotations. Every table is checked against a map after
// every step.
func FuzzIndex(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 2, 1, 1, 2, 0, 4})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 2, 0, 2, 3})
	f.Add([]byte{0, 1, 0, 2, 0, 5, 3, 1, 3, 5, 5, 0, 3, 2, 4, 1, 5, 0, 4, 5, 4, 2, 1, 1})
	f.Fuzz(func(t *testing.T, prog []byte) {
		const shift = 1
		var pool [16]uint64
		for k := range pool {
			// Homes 5, 6, 7 and 0 of the starting table; the salt bits
			// spread the pool again once the table grows.
			pool[k] = idWithHome(shift, minIndexSlots, uint64(5+k%4)%minIndexSlots, uint64(k/4+1))
		}
		const hot, cur, old = 0, 1, 2
		tabs := [3]index{newIndex(shift, 0), newIndex(shift, 0), newIndex(shift, 0)}
		refs := [3]map[uint64]entry{{}, {}, {}}
		// move takes id from table src, as eviction and revival do, and
		// inserts it into dst; it reports whether id was in src.
		move := func(id uint64, src, dst int) bool {
			want, ok := refs[src][id]
			e, got := tabs[src].take(id, bitutil.Mix64(id))
			if got != ok || (ok && e != want) {
				t.Fatalf("take(%#x) from table %d = %+v %v, want %+v %v", id, src, e, got, want, ok)
			}
			if ok {
				delete(refs[src], id)
				tabs[dst].insert(id, bitutil.Mix64(id), e)
				refs[dst][id] = e
			}
			return ok
		}
		for p := 0; p+1 < len(prog); p += 2 {
			k := int(prog[p+1]) % len(pool)
			id := pool[k]
			switch prog[p] % 6 {
			case 0: // create: a link lives in at most one table
				_, h := refs[hot][id]
				_, c := refs[cur][id]
				_, o := refs[old][id]
				if !h && !c && !o {
					e := testEntry(p)
					tabs[hot].insert(id, bitutil.Mix64(id), e)
					refs[hot][id] = e
				}
			case 1:
				want, ok := refs[hot][id]
				e := tabs[hot].find(id, bitutil.Mix64(id))
				if ok != (e != nil) || (ok && *e != want) {
					t.Fatalf("find(%#x) = %v, want %+v (present %v)", id, e, want, ok)
				}
				if e != nil {
					e.lastUsed++ // in-place update, as the hot path does
					want.lastUsed++
					refs[hot][id] = want
				}
			case 2:
				if i, ok := slotOf(&tabs[hot], id); ok {
					tabs[hot].removeAt(i)
					delete(refs[hot], id)
				}
			case 3: // evict
				move(id, hot, cur)
			case 4: // revive, current generation first
				if !move(id, cur, hot) {
					move(id, old, hot)
				}
			case 5: // rotate: the old generation is spilled and reused
				tabs[old].reset()
				clear(refs[old])
				tabs[cur], tabs[old] = tabs[old], tabs[cur]
				refs[cur], refs[old] = refs[old], refs[cur]
			}
			for i := range tabs {
				checkIndex(t, &tabs[i], refs[i])
			}
		}
	})
}

// TestSweepWrappedClusterInterleaved puts six links in one cluster that
// wraps past the last slot of a shard's table, lets three of them idle
// out — two of them adjacent, so a backward shift moves an expired entry
// into the slot just swept — and sweeps: each expired link must be
// archived exactly once, even when shifts move entries across the wrap,
// and each live link must stay hot and reachable.
func TestSweepWrappedClusterInterleaved(t *testing.T) {
	const ttl = 100 * time.Millisecond
	clk := &fakeClock{}
	st := New(Config{Shards: 1, TTL: ttl, Clock: clk.Now})
	sh := &st.shards[0]
	if len(sh.links.slots) != minIndexSlots {
		t.Fatalf("shard table has %d slots, want %d", len(sh.links.slots), minIndexSlots)
	}
	homes := []uint64{6, 6, 6, 6, 6, 6}
	expired := []bool{false, true, false, true, true, false}
	ids := make([]uint64, len(homes))
	for k, h := range homes {
		ids[k] = idWithHome(0, minIndexSlots, h, uint64(k+1))
		st.Apply(Op{LinkID: ids[k], Algo: ctl.AlgoSoftRate})
	}
	if sh.links.slots[minIndexSlots-1].empty() || sh.links.slots[0].empty() {
		t.Fatal("cluster does not wrap past the last slot")
	}

	clk.Advance(ttl * 6 / 10)
	for k, id := range ids {
		if !expired[k] {
			st.Apply(Op{LinkID: id})
		}
	}
	clk.Advance(ttl * 6 / 10)
	if n := st.EvictIdle(); n != 3 {
		t.Fatalf("EvictIdle evicted %d links, want 3", n)
	}

	s := st.Stats()
	if s.Live != 3 || s.Archived != 3 || s.Evictions != 3 {
		t.Fatalf("after sweep: live %d archived %d evictions %d, want 3/3/3", s.Live, s.Archived, s.Evictions)
	}
	for k, id := range ids {
		archived := sh.archive.find(id, bitutil.Mix64(id)) != nil
		hot := sh.links.find(id, bitutil.Mix64(id)) != nil
		if archived != expired[k] || hot == expired[k] {
			t.Fatalf("link %d: archived %v hot %v, want expired=%v", k, archived, hot, expired[k])
		}
	}
	live := map[uint64]entry{}
	for k, id := range ids {
		if !expired[k] {
			live[id] = *sh.links.find(id, bitutil.Mix64(id))
		}
	}
	checkIndex(t, &sh.links, live)

	// A swept link comes back from the archive, once.
	st.Apply(Op{LinkID: ids[1]})
	if s := st.Stats(); s.Restores != 1 || s.Archived != 2 || s.Live != 4 {
		t.Fatalf("after revival: %+v", s.ShardStats)
	}
}
