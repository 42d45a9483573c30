package coldstore

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"softrate/internal/faultfs"
)

func openT(t *testing.T, dir string, cfg Config) *Store {
	t.Helper()
	cfg.Dir = dir
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func stateFor(id uint64, w int) []byte {
	st := make([]byte, w)
	for i := range st {
		st[i] = byte(id + uint64(i)*131)
	}
	binary.LittleEndian.PutUint64(st[:8], id)
	return st
}

func putOne(t *testing.T, s *Store, id uint64, algo uint8, state []byte) {
	t.Helper()
	if err := s.PutBatch([]Record{{LinkID: id, Algo: algo, State: state}}); err != nil {
		t.Fatalf("PutBatch(%d): %v", id, err)
	}
}

func TestPutTakeRoundtrip(t *testing.T) {
	s := openT(t, t.TempDir(), Config{})
	widths := []int{8, 16, 20, 1668}
	var batch []Record
	for i := 0; i < 64; i++ {
		id := uint64(i + 1)
		batch = append(batch, Record{LinkID: id, Algo: uint8(i%5 + 1), State: stateFor(id, widths[i%len(widths)])})
	}
	if err := s.PutBatch(batch); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	if got := s.Len(); got != 64 {
		t.Fatalf("Len = %d, want 64", got)
	}
	for i, r := range batch {
		algo, st, ok, err := s.Take(r.LinkID, nil)
		if err != nil || !ok {
			t.Fatalf("Take(%d): ok=%v err=%v", r.LinkID, ok, err)
		}
		if algo != r.Algo {
			t.Fatalf("Take(%d): algo %d, want %d", r.LinkID, algo, r.Algo)
		}
		if !bytes.Equal(st, stateFor(r.LinkID, widths[i%len(widths)])) {
			t.Fatalf("Take(%d): state mismatch", r.LinkID)
		}
	}
	// Taken links are gone.
	if _, _, ok, err := s.Take(1, nil); ok || err != nil {
		t.Fatalf("re-Take(1): ok=%v err=%v, want miss", ok, err)
	}
	st := s.Stats()
	if st.Links != 0 || st.Spills != 64 || st.Restores != 64 {
		t.Fatalf("stats = %+v", st)
	}
	if st.RestoreLatency.Count != 64 {
		t.Fatalf("restore latency count = %d, want 64", st.RestoreLatency.Count)
	}
}

func TestPeekDoesNotRemove(t *testing.T) {
	s := openT(t, t.TempDir(), Config{})
	putOne(t, s, 7, 3, stateFor(7, 16))
	for i := 0; i < 2; i++ {
		algo, st, ok, err := s.Peek(7, nil)
		if err != nil || !ok || algo != 3 || !bytes.Equal(st, stateFor(7, 16)) {
			t.Fatalf("Peek #%d: algo=%d ok=%v err=%v", i, algo, ok, err)
		}
	}
	if s.Len() != 1 {
		t.Fatalf("Peek removed the link")
	}
}

func TestSupersedeKeepsLatest(t *testing.T) {
	s := openT(t, t.TempDir(), Config{})
	putOne(t, s, 42, 1, stateFor(42, 8))
	next := stateFor(43, 8) // different bytes, same link
	putOne(t, s, 42, 1, next)
	if s.Len() != 1 {
		t.Fatalf("Len = %d after supersede, want 1", s.Len())
	}
	_, st, ok, err := s.Take(42, nil)
	if err != nil || !ok || !bytes.Equal(st, next) {
		t.Fatalf("Take after supersede: ok=%v err=%v state=%x", ok, err, st)
	}
	stats := s.Stats()
	if stats.DeadBytes == 0 {
		t.Fatalf("superseded record not counted dead: %+v", stats)
	}
}

func TestRotationAndCompaction(t *testing.T) {
	// Tiny segments so a few batches rotate; ratio 0.4 so a half-dead
	// segment is rewritten.
	s := openT(t, t.TempDir(), Config{SegmentBytes: 1 << 10, CompactRatio: 0.4})
	const n = 200
	for i := 0; i < n; i++ {
		putOne(t, s, uint64(i+1), 1, stateFor(uint64(i+1), 32))
	}
	if st := s.Stats(); st.Segments < 3 {
		t.Fatalf("expected rotation, got %d segments", st.Segments)
	}
	// Kill most of the population, then compact to quiescence.
	for i := 0; i < n-10; i++ {
		if _, _, ok, err := s.Take(uint64(i+1), nil); !ok || err != nil {
			t.Fatalf("Take(%d): ok=%v err=%v", i+1, ok, err)
		}
	}
	for {
		progressed, err := s.CompactOnce()
		if err != nil {
			t.Fatalf("CompactOnce: %v", err)
		}
		if !progressed {
			break
		}
	}
	st := s.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compactions ran: %+v", st)
	}
	if st.Links != 10 {
		t.Fatalf("Links = %d, want 10", st.Links)
	}
	// The survivors must still read back exactly.
	for i := n - 10; i < n; i++ {
		id := uint64(i + 1)
		_, got, ok, err := s.Take(id, nil)
		if err != nil || !ok || !bytes.Equal(got, stateFor(id, 32)) {
			t.Fatalf("post-compaction Take(%d): ok=%v err=%v", id, ok, err)
		}
	}
}

func TestReopenRecoversEverything(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Config{SegmentBytes: 1 << 10})
	const n = 100
	for i := 0; i < n; i++ {
		id := uint64(i + 1)
		putOne(t, s, id, uint8(i%5+1), stateFor(id, 8+(i%4)*8))
	}
	// Supersede one so the reopened index must honor later-wins; take one
	// to pin the documented resurrection semantics (a taken link's record
	// stays in the log, so reopen recovers its spill-time state — the
	// owner supersedes it on the next spill, or SpillAll at shutdown).
	putOne(t, s, 5, 2, stateFor(500, 16))
	if _, _, ok, err := s.Take(9, nil); !ok || err != nil {
		t.Fatalf("Take(9): ok=%v err=%v", ok, err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r := openT(t, dir, Config{SegmentBytes: 1 << 10})
	if got, want := r.Len(), n; got != want {
		t.Fatalf("reopened Len = %d, want %d", got, want)
	}
	if _, st, ok, _ := r.Peek(9, nil); !ok || !bytes.Equal(st, stateFor(9, 8+(9-1)%4*8)) {
		t.Fatalf("taken link 9 should resurrect with its spill-time state; ok=%v", ok)
	}
	algo, st, ok, err := r.Peek(5, nil)
	if err != nil || !ok || algo != 2 || !bytes.Equal(st, stateFor(500, 16)) {
		t.Fatalf("reopened Peek(5): algo=%d ok=%v err=%v", algo, ok, err)
	}
	for i := 0; i < n; i++ {
		id := uint64(i + 1)
		if id == 5 || id == 9 {
			continue
		}
		_, st, ok, err := r.Peek(id, nil)
		if err != nil || !ok || !bytes.Equal(st, stateFor(id, 8+(i%4)*8)) {
			t.Fatalf("reopened Peek(%d): ok=%v err=%v", id, ok, err)
		}
	}
}

// TestTornTailTruncated crashes mid-commit by chopping bytes off the
// active segment: every fully-written record must survive reopen and the
// torn suffix must be dropped, not parsed.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Config{})
	for i := 0; i < 10; i++ {
		putOne(t, s, uint64(i+1), 1, stateFor(uint64(i+1), 32))
	}
	putOne(t, s, 999, 1, stateFor(999, 32))
	s.Close()

	path := filepath.Join(dir, segName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear halfway through the final record.
	if err := os.WriteFile(path, data[:len(data)-20], 0o644); err != nil {
		t.Fatal(err)
	}

	r := openT(t, dir, Config{})
	if _, _, ok, _ := r.Peek(999, nil); ok {
		t.Fatalf("torn record 999 came back")
	}
	for i := 0; i < 10; i++ {
		id := uint64(i + 1)
		_, st, ok, err := r.Peek(id, nil)
		if err != nil || !ok || !bytes.Equal(st, stateFor(id, 32)) {
			t.Fatalf("committed record %d lost to torn tail: ok=%v err=%v", id, ok, err)
		}
	}
	if st := r.Stats(); st.TornTails != 1 {
		t.Fatalf("TornTails = %d, want 1", st.TornTails)
	}
	// The tier keeps working after repair.
	putOne(t, r, 999, 1, stateFor(999, 32))
	_, st, ok, err := r.Take(999, nil)
	if err != nil || !ok || !bytes.Equal(st, stateFor(999, 32)) {
		t.Fatalf("post-repair Take(999): ok=%v err=%v", ok, err)
	}
}

// TestCorruptTailNeverFabricates flips a byte inside the final record:
// recovery must drop that record (CRC) without inventing state, keeping
// all earlier ones.
func TestCorruptTailNeverFabricates(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Config{})
	for i := 0; i < 5; i++ {
		putOne(t, s, uint64(i+1), 1, stateFor(uint64(i+1), 24))
	}
	s.Close()

	path := filepath.Join(dir, segName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-10] ^= 0x40 // inside the last record's state
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r := openT(t, dir, Config{})
	if r.Len() != 4 {
		t.Fatalf("Len = %d after corrupt tail, want 4", r.Len())
	}
	if _, _, ok, _ := r.Peek(5, nil); ok {
		t.Fatalf("corrupt record 5 came back")
	}
	for i := 0; i < 4; i++ {
		id := uint64(i + 1)
		_, st, ok, err := r.Peek(id, nil)
		if err != nil || !ok || !bytes.Equal(st, stateFor(id, 24)) {
			t.Fatalf("record %d lost: ok=%v err=%v", id, ok, err)
		}
	}
}

func TestStatsBytesAndAlgos(t *testing.T) {
	s := openT(t, t.TempDir(), Config{})
	putOne(t, s, 1, 1, stateFor(1, 8))
	putOne(t, s, 2, 2, stateFor(2, 1668))
	st := s.Stats()
	wantLive := int64(recOverhead+8) + int64(recOverhead+1668)
	if st.LiveBytes != wantLive {
		t.Fatalf("LiveBytes = %d, want %d", st.LiveBytes, wantLive)
	}
	if st.AlgoLinks[1] != 1 || st.AlgoLinks[2] != 1 {
		t.Fatalf("AlgoLinks = %v", st.AlgoLinks)
	}
	if _, _, ok, _ := s.Take(2, nil); !ok {
		t.Fatal("Take(2) missed")
	}
	st = s.Stats()
	if st.LiveBytes != int64(recOverhead+8) || st.DeadBytes != int64(recOverhead+1668) {
		t.Fatalf("after Take: live=%d dead=%d", st.LiveBytes, st.DeadBytes)
	}
	if _, ok := st.AlgoLinks[2]; ok {
		t.Fatalf("algo 2 still counted: %v", st.AlgoLinks)
	}
}

func TestRejectsOversizeState(t *testing.T) {
	s := openT(t, t.TempDir(), Config{})
	err := s.PutBatch([]Record{{LinkID: 1, Algo: 1, State: make([]byte, maxStateLen+1)}})
	if err == nil {
		t.Fatal("oversize state accepted")
	}
	if s.Len() != 0 {
		t.Fatal("oversize batch partially applied")
	}
}

func TestRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(0)), []byte("not a segment file at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir}); err == nil {
		t.Fatal("Open accepted a foreign file as a segment")
	}
}

func TestManyBatchesManySegmentsReopen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Config{SegmentBytes: 4 << 10})
	want := make(map[uint64][]byte)
	for b := 0; b < 40; b++ {
		var batch []Record
		for i := 0; i < 25; i++ {
			id := uint64(b*1000 + i + 1)
			st := stateFor(id, 8+(i%3)*12)
			want[id] = st
			batch = append(batch, Record{LinkID: id, Algo: uint8(b%5 + 1), State: st})
		}
		if err := s.PutBatch(batch); err != nil {
			t.Fatalf("PutBatch #%d: %v", b, err)
		}
	}
	s.Close()
	r := openT(t, dir, Config{SegmentBytes: 4 << 10})
	if r.Len() != len(want) {
		t.Fatalf("reopened Len = %d, want %d", r.Len(), len(want))
	}
	for id, st := range want {
		_, got, ok, err := r.Take(id, nil)
		if err != nil || !ok || !bytes.Equal(got, st) {
			t.Fatalf("Take(%d): ok=%v err=%v", id, ok, err)
		}
	}
}

// FuzzSegmentRecovery is the crash-recovery contract under fire: commit
// a known population, then corrupt the tail of the last segment in an
// arbitrary way (truncate to any length, or flip arbitrary suffix
// bytes). Reopen must (a) never return a record that was not committed
// byte-for-byte, and (b) recover every record strictly before the
// damage.
func FuzzSegmentRecovery(f *testing.F) {
	f.Add(uint16(0), uint8(0), uint64(0))
	f.Add(uint16(20), uint8(1), uint64(0x40))
	f.Add(uint16(300), uint8(7), uint64(0xdeadbeef))
	f.Fuzz(func(t *testing.T, chop uint16, nflips uint8, flipSeed uint64) {
		dir := t.TempDir()
		s, err := Open(Config{Dir: dir, SegmentBytes: 1 << 10})
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[uint64][]byte)
		for b := 0; b < 6; b++ {
			var batch []Record
			for i := 0; i < 10; i++ {
				id := uint64(b*100 + i + 1)
				st := stateFor(id, 8+(int(id)%5)*7)
				want[id] = st
				batch = append(batch, Record{LinkID: id, Algo: uint8(id%5 + 1), State: st})
			}
			if err := s.PutBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()

		// Find the last segment and damage its tail.
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		last := ""
		for _, e := range entries {
			if e.Name() > last {
				last = e.Name()
			}
		}
		path := filepath.Join(dir, last)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Parse the pre-damage image: only these links may be lost.
		lastIDs := make(map[uint64]bool)
		for off := headerLen; off+recOverhead <= len(data); {
			w := int(binary.LittleEndian.Uint16(data[off : off+2]))
			lastIDs[binary.LittleEndian.Uint64(data[off+3:off+11])] = true
			off += recOverhead + w
		}
		// damageStart marks the first byte that may differ from the
		// committed image.
		damageStart := len(data)
		if n := int(chop) % (len(data) + 1); n > 0 {
			data = data[:len(data)-n]
			damageStart = len(data)
		}
		rng := flipSeed
		for i := 0; i < int(nflips%8) && len(data) > headerLen; i++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			// Flip within the last quarter of the file (past the header)
			// so the damage is tail-shaped.
			span := (len(data)-headerLen)/4 + 1
			pos := len(data) - 1 - int(rng>>33)%span
			if pos < headerLen {
				pos = headerLen
			}
			data[pos] ^= byte(rng) | 1
			if pos < damageStart {
				damageStart = pos
			}
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		r, err := Open(Config{Dir: dir, SegmentBytes: 1 << 10})
		if err != nil {
			// A fully unparseable segment header is a refused Open, not a
			// fabricated record — acceptable only if the header itself was
			// damaged.
			if damageStart < headerLen {
				return
			}
			t.Fatalf("Open after tail damage: %v", err)
		}
		defer r.Close()

		for id, st := range want {
			algo, got, ok, err := r.Peek(id, nil)
			if err != nil {
				t.Fatalf("Peek(%d): %v", id, err)
			}
			if !ok {
				// Only links whose record lived in the damaged segment may
				// be lost.
				if !lastIDs[id] {
					t.Fatalf("Peek(%d): lost a record from an undamaged segment", id)
				}
				continue
			}
			// Never a garbage record: anything returned must be the
			// committed bytes.
			if !bytes.Equal(got, st) || algo != uint8(id%5+1) {
				t.Fatalf("Peek(%d) returned fabricated state: algo=%d got=%x want=%x", id, algo, got, st)
			}
		}
	})
}

// goldenRecords is the fixed batch behind goldenSegment: four algorithms,
// widths 8 to 24, and link IDs that use all eight bytes.
func goldenRecords() []Record {
	return []Record{
		{LinkID: 1, Algo: 1, State: stateFor(1, 8)},
		{LinkID: 0x0123456789abcdef, Algo: 4, State: stateFor(0x0123456789abcdef, 20)},
		{LinkID: 7, Algo: 2, State: stateFor(7, 24)},
		{LinkID: 1 << 40, Algo: 3, State: stateFor(1<<40, 12)},
	}
}

// goldenSegment is segment 0 after one PutBatch(goldenRecords()): the
// "SRCS" v1 header, then [width u16][algo u8][linkID u64][state][crc32]
// per record, all little-endian. It was written by the byte-wise table
// CRC this package framed records with before it switched to hash/crc32,
// so it is also a segment in the previous writer's format.
const goldenSegment = "" +
	"534352530100000008000101000000000000000100000000000000a68ecd3614" +
	"0004efcdab8967452301efcdab8967452301078a0d901396199c1fa225a8673d" +
	"c3bb180002070000000000000007000000000000001fa225a82bae31b437ba3d" +
	"c043c649ccac7cf1c30c000300000000000100000000000000010000189b1ea1" +
	"8e10ac07"

// TestSegmentFormatGolden pins the on-disk record format, CRCs included:
// a fixed batch must produce exactly goldenSegment, and a directory
// holding goldenSegment must reopen with every record intact.
func TestSegmentFormatGolden(t *testing.T) {
	want, err := hex.DecodeString(goldenSegment)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s := openT(t, dir, Config{})
	if err := s.PutBatch(goldenRecords()); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, segName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("segment bytes\n got %x\nwant %x", got, want)
	}

	old := t.TempDir()
	if err := os.WriteFile(filepath.Join(old, segName(0)), want, 0o644); err != nil {
		t.Fatal(err)
	}
	r := openT(t, old, Config{})
	if st := r.Stats(); st.Links != 4 || st.TornTails != 0 {
		t.Fatalf("reopened golden segment: %+v", st)
	}
	for _, rec := range goldenRecords() {
		algo, state, ok, err := r.Take(rec.LinkID, nil)
		if err != nil || !ok || algo != rec.Algo || !bytes.Equal(state, rec.State) {
			t.Fatalf("Take(%#x) = algo %d state %x ok=%v err=%v, want algo %d state %x",
				rec.LinkID, algo, state, ok, err, rec.Algo, rec.State)
		}
	}
}

// readCountFS counts the bytes read through every file it opens.
type readCountFS struct {
	faultfs.OS
	read *atomic.Int64
}

type readCountFile struct {
	faultfs.File
	read *atomic.Int64
}

func (f readCountFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.read.Add(int64(n))
	return n, err
}

func (c readCountFS) Open(path string) (faultfs.File, error) {
	f, err := c.OS.Open(path)
	return readCountFile{f, c.read}, err
}

func (c readCountFS) Create(path string) (faultfs.File, error) {
	f, err := c.OS.Create(path)
	return readCountFile{f, c.read}, err
}

// TestTakeReadsItsOwnAlgorithmWidth: a restore preads the widest record
// of its own algorithm, not of the widest algorithm in the tier — a
// narrow record sitting before a 1.7 KB one costs a narrow read.
func TestTakeReadsItsOwnAlgorithmWidth(t *testing.T) {
	var read atomic.Int64
	s := openT(t, t.TempDir(), Config{FS: readCountFS{read: &read}})
	narrow := Record{LinkID: 1, Algo: 1, State: stateFor(1, 8)}
	wide := Record{LinkID: 2, Algo: 2, State: stateFor(2, 1668)}
	if err := s.PutBatch([]Record{narrow, wide}); err != nil {
		t.Fatal(err)
	}
	for _, rec := range []Record{narrow, wide} {
		read.Store(0)
		algo, state, ok, err := s.Take(rec.LinkID, nil)
		if err != nil || !ok || algo != rec.Algo || !bytes.Equal(state, rec.State) {
			t.Fatalf("Take(%d): algo %d ok=%v err=%v", rec.LinkID, algo, ok, err)
		}
		if want := int64(recOverhead + len(rec.State)); read.Load() != want {
			t.Fatalf("Take(%d) read %d bytes, want %d", rec.LinkID, read.Load(), want)
		}
	}
}

// TestSegmentIDBound: the index packs segment IDs into 24 bits, so
// rotating past the last one fails the batch (which stays unindexed)
// instead of wrapping onto segment 0, and Open refuses a directory
// holding an ID past the bound.
func TestSegmentIDBound(t *testing.T) {
	for _, v := range [][3]uint64{{0, 0, 0}, {255, maxSegments - 1, 1<<32 - 1}, {7, 12345, 99}} {
		algo, seg, off := unpack(pack(uint8(v[0]), uint32(v[1]), int64(v[2])))
		if uint64(algo) != v[0] || uint64(seg) != v[1] || uint64(off) != v[2] {
			t.Fatalf("unpack(pack(%v)) = %d, %d, %d", v, algo, seg, off)
		}
	}

	s := openT(t, t.TempDir(), Config{SegmentBytes: 64})
	putOne(t, s, 1, 1, stateFor(1, 64)) // fills segment 0
	s.mu.Lock()
	s.nextSeg = maxSegments - 1
	s.mu.Unlock()
	putOne(t, s, 2, 1, stateFor(2, 64)) // rotates onto the last ID and fills it
	if err := s.PutBatch([]Record{{LinkID: 3, Algo: 1, State: stateFor(3, 64)}}); err == nil {
		t.Fatal("rotation past the last segment ID succeeded")
	}
	if _, _, ok, _ := s.Peek(3, nil); ok {
		t.Fatal("the batch that failed to rotate was indexed")
	}
	for id := uint64(1); id <= 2; id++ {
		if _, state, ok, err := s.Peek(id, nil); err != nil || !ok || !bytes.Equal(state, stateFor(id, 64)) {
			t.Fatalf("Peek(%d) after the refused rotation: ok=%v err=%v", id, ok, err)
		}
	}

	dir := t.TempDir()
	hdr, _ := hex.DecodeString(goldenSegment[:2*headerLen])
	if err := os.WriteFile(filepath.Join(dir, segName(maxSegments)), hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir}); err == nil {
		t.Fatal("Open accepted a segment ID past the bound")
	}
}
