// Package coldstore is the link store's disk tier: an append-only
// segment log of encoded per-link controller states with a compact
// in-memory index. It exists so that resident memory tracks the *hot*
// link population instead of the total one — at 10M+ links the RAM cost
// of an idle link drops from its full archived state (up to ~1.7 KB for
// SampleRate) to one index entry (a 16-byte linkID → (algo, segment,
// offset) pair plus map overhead).
//
// Design, in the spirit of every log-structured store:
//
//   - Writes are batched appends. The link store evicts links in
//     generations, and one generation becomes one PutBatch: every record
//     is serialized into a single buffer and committed with one write
//     syscall (group commit). Records are CRC-framed — [width u16,
//     algo u8, linkID u64, state, crc32 over all of it] — so a torn
//     tail is detectable.
//   - Reads are single-shot. The index maps a link to (algo, segment,
//     offset); Take issues one pread of the widest record committed for
//     that algorithm (not the widest of any algorithm: a 23-byte SoftRate
//     record is not read as a 1.7 KB SampleRate one) and validates the
//     width, link ID and CRC before handing the state back. A restored
//     link's record becomes dead — the hot store owns the state again.
//   - Segments rotate at a size threshold. Superseded and restored
//     records make a segment's dead ratio grow; a background compactor
//     rewrites any segment past Config.CompactRatio by re-appending its
//     live records and deleting the file, so disk usage tracks the live
//     population. Segment IDs are 24 bits (the index packs the algorithm
//     beside them); rotating past 2^24 segments is an error.
//   - Recovery is a scan. Open rebuilds the index by reading every
//     segment in ID order (later segments supersede earlier ones, later
//     offsets supersede earlier ones); the first CRC or framing failure
//     in a segment is treated as a torn tail and truncated away, so a
//     crash mid-commit recovers every fully-written record and never
//     fabricates one. Take deletes only the index entry, so a link taken
//     back into RAM and then lost to a crash resurrects at reopen with
//     its spill-time state — best-available semantics; a clean shutdown
//     (linkstore.SpillAll) supersedes every such record first, making
//     restart exact.
//
// The store never decodes controller state — bytes in are bytes out,
// which is what keeps decisions byte-identical across evict → spill →
// restore (the link store's -verify contract extends over this tier).
package coldstore

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"softrate/internal/bitutil"
	"softrate/internal/faultfs"
	"softrate/internal/obs"
	"softrate/internal/stats"
)

// segmentFile is the per-file I/O surface a segment needs. It is
// faultfs.File so a fault-injecting Config.FS reaches every read, write
// and sync the tier ever issues — there is no *os.File fast path to slip
// past the injector.
type segmentFile = faultfs.File

const (
	// segMagic/segVersion head every segment file.
	segMagic   = 0x53524353 // "SRCS"
	segVersion = 1
	headerLen  = 8

	// recHeaderLen is [width u16][algo u8][linkID u64]; recOverhead adds
	// the trailing CRC32.
	recHeaderLen = 2 + 1 + 8
	recOverhead  = recHeaderLen + 4

	// maxSegments bounds segment IDs: the index packs a record's
	// location as [algo u8][segment u24][offset u32].
	maxSegments = 1 << 24

	// maxStateLen bounds a record's state width: anything larger in a
	// segment is corruption, not a controller snapshot (the widest
	// registered state is SampleRate's ~1.7 KB).
	maxStateLen = 1 << 16

	// DefaultSegmentBytes is the rotation threshold when
	// Config.SegmentBytes is zero.
	DefaultSegmentBytes = 64 << 20
	// DefaultCompactRatio is the dead-byte ratio past which a segment is
	// rewritten, when Config.CompactRatio is zero.
	DefaultCompactRatio = 0.5
)

// Config parameterizes a Store.
type Config struct {
	// Dir is the segment directory (created if absent).
	Dir string
	// SegmentBytes is the size at which the active segment is rotated.
	// A batch is never split across segments, so a segment may exceed
	// this by up to one batch. 0 means DefaultSegmentBytes.
	SegmentBytes int
	// CompactRatio is the dead/total byte ratio past which a sealed
	// segment is compacted, in (0, 1]; 1 rewrites only fully-dead
	// segments (which are always reclaimed). 0 means
	// DefaultCompactRatio.
	CompactRatio float64
	// Sync fsyncs after every committed batch. Off by default: the tier
	// targets crash-*restart* recovery (process death), not power-loss
	// durability, and the TTL-eviction write path should not pay an
	// fsync per generation.
	Sync bool
	// FS is the filesystem the tier runs on. Nil means the real one
	// (faultfs.OS); chaos runs pass a faultfs.Injector here.
	FS faultfs.FS
}

// Record is one link's encoded state handed to PutBatch. State is only
// read during the call.
type Record struct {
	LinkID uint64
	Algo   uint8
	State  []byte
}

// segment is one on-disk log file.
type segment struct {
	id        uint32
	f         segmentFile
	size      int64 // committed bytes, including the header
	liveBytes int64 // record bytes still referenced by the index
	deadBytes int64 // record bytes superseded or restored
	liveRecs  int64
	deadRecs  int64
}

func (sg *segment) deadRatio() float64 {
	total := sg.liveBytes + sg.deadBytes
	if total == 0 {
		return 0
	}
	return float64(sg.deadBytes) / float64(total)
}

// Store is the disk-backed cold tier.
type Store struct {
	cfg          Config
	fs           faultfs.FS
	segmentBytes int64
	compactRatio float64

	mu      sync.Mutex
	segs    map[uint32]*segment
	active  *segment
	nextSeg uint32
	// index maps linkID → pack(algo, segment ID, byte offset). A Go map
	// of two uint64s costs ~16 payload bytes per link plus bucket
	// overhead — the whole point of the tier: this is all an idle link
	// keeps in RAM.
	index map[uint64]uint64
	// maxRec is the largest committed record length per algorithm; Take
	// preads the indexed algorithm's entry, so a restore is one syscall
	// sized to its own kind of record.
	maxRec [256]int64
	// perAlgo counts live indexed links per algorithm ID.
	perAlgo [256]int64

	batchBuf []byte // PutBatch serialization buffer, reused
	readBuf  []byte // Take/Peek pread buffer, reused

	spills      uint64
	restores    uint64
	compactions uint64
	tornTails   uint64
	restoreLat  obs.Latency

	compactCh chan struct{}
	stopCh    chan struct{}
	done      sync.WaitGroup
	closed    bool
}

// pack and unpack convert a record location to and from its index value:
// [algo u8][segment u24][offset u32].
func pack(algo uint8, seg uint32, off int64) uint64 {
	return uint64(algo)<<56 | uint64(seg)<<32 | uint64(uint32(off))
}

func unpack(v uint64) (algo uint8, seg uint32, off int64) {
	return uint8(v >> 56), uint32(v>>32) & (maxSegments - 1), int64(uint32(v))
}

func segName(id uint32) string            { return fmt.Sprintf("seg-%08d.slog", id) }
func (s *Store) segPath(id uint32) string { return filepath.Join(s.cfg.Dir, segName(id)) }

// Open creates or recovers a Store in cfg.Dir. Existing segments are
// scanned to rebuild the index: later segments supersede earlier ones,
// and a torn tail (partial final batch from a crash) is truncated away.
func Open(cfg Config) (*Store, error) {
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = DefaultSegmentBytes
	}
	if cfg.CompactRatio <= 0 {
		cfg.CompactRatio = DefaultCompactRatio
	}
	if cfg.CompactRatio > 1 {
		cfg.CompactRatio = 1
	}
	if cfg.FS == nil {
		cfg.FS = faultfs.OS{}
	}
	if err := cfg.FS.MkdirAll(cfg.Dir); err != nil {
		return nil, err
	}
	s := &Store{
		cfg:          cfg,
		fs:           cfg.FS,
		segmentBytes: int64(cfg.SegmentBytes),
		compactRatio: cfg.CompactRatio,
		segs:         make(map[uint32]*segment),
		index:        make(map[uint64]uint64),
		compactCh:    make(chan struct{}, 1),
		stopCh:       make(chan struct{}),
	}
	if err := s.recover(); err != nil {
		s.closeFiles()
		return nil, err
	}
	s.done.Add(1)
	go s.compactLoop()
	s.kickCompact()
	return s, nil
}

// recover scans the directory and rebuilds segments and index.
func (s *Store) recover() error {
	names, err := s.fs.ReadDir(s.cfg.Dir)
	if err != nil {
		return err
	}
	var ids []uint32
	for _, name := range names {
		var id uint32
		if n, _ := fmt.Sscanf(name, "seg-%08d.slog", &id); n == 1 && name == segName(id) {
			if id >= maxSegments {
				return fmt.Errorf("coldstore: %s: segment ID beyond the %d-segment bound", s.segPath(id), maxSegments)
			}
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		sg, err := s.openSegment(id)
		if err != nil {
			return err
		}
		if err := s.scanSegment(sg); err != nil {
			return err
		}
		s.segs[id] = sg
		if id >= s.nextSeg {
			s.nextSeg = id + 1
		}
	}
	// The highest segment resumes as the active one; with none, start
	// fresh at segment 0.
	if len(ids) > 0 {
		s.active = s.segs[ids[len(ids)-1]]
		return nil
	}
	return s.rotateLocked()
}

// openSegment opens an existing segment file, repairing a torn header
// (a crash during creation) by rewriting it.
func (s *Store) openSegment(id uint32) (*segment, error) {
	f, err := s.fs.Open(s.segPath(id))
	if err != nil {
		return nil, err
	}
	sg := &segment{id: id, f: f}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, err
	}
	if size < headerLen {
		if err := s.writeHeader(sg); err != nil {
			f.Close()
			return nil, err
		}
		return sg, nil
	}
	var hdr [headerLen]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		f.Close()
		return nil, err
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != segMagic ||
		binary.LittleEndian.Uint32(hdr[4:8]) != segVersion {
		f.Close()
		return nil, fmt.Errorf("coldstore: %s: not a cold-tier segment", s.segPath(id))
	}
	sg.size = size
	return sg, nil
}

func (s *Store) writeHeader(sg *segment) error {
	var hdr [headerLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], segMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], segVersion)
	if _, err := sg.f.WriteAt(hdr[:], 0); err != nil {
		return err
	}
	if err := sg.f.Truncate(headerLen); err != nil {
		return err
	}
	sg.size = headerLen
	return nil
}

// scanSegment replays one segment's records into the index. The first
// framing or CRC failure is a torn tail: everything before it is
// committed, everything at and after it is truncated away.
func (s *Store) scanSegment(sg *segment) error {
	if sg.size <= headerLen {
		return nil
	}
	data := make([]byte, sg.size-headerLen)
	if _, err := sg.f.ReadAt(data, headerLen); err != nil {
		return err
	}
	off := 0
	for off < len(data) {
		rec := data[off:]
		if len(rec) < recOverhead {
			break // torn: not even a frame
		}
		w := int(binary.LittleEndian.Uint16(rec[0:2]))
		if w > maxStateLen || len(rec) < recOverhead+w {
			break // torn: width runs past the tail
		}
		n := recOverhead + w
		want := binary.LittleEndian.Uint32(rec[n-4 : n])
		if bitutil.CRC32(rec[:n-4]) != want {
			break // torn: partial write inside the frame
		}
		algo := rec[2]
		id := binary.LittleEndian.Uint64(rec[3:11])
		s.indexPut(id, algo, sg, int64(headerLen+off), int64(n))
		off += n
	}
	if int64(headerLen+off) != sg.size {
		// Torn tail: drop the unparseable suffix so a later append can
		// never concatenate into it.
		s.tornTails++
		if err := sg.f.Truncate(int64(headerLen + off)); err != nil {
			return err
		}
		sg.size = int64(headerLen + off)
	}
	return nil
}

// indexPut points the index at a freshly scanned or written record,
// marking any superseded record dead in its segment.
func (s *Store) indexPut(id uint64, algo uint8, sg *segment, off, n int64) {
	if old, ok := s.index[id]; ok {
		_, oldSeg, oldOff := unpack(old)
		if osg := s.segs[oldSeg]; osg != nil {
			s.markDead(osg, oldOff)
		} else if oldSeg == sg.id {
			s.markDead(sg, oldOff)
		}
	} else {
		s.perAlgo[algo]++
	}
	s.index[id] = pack(algo, sg.id, off)
	sg.liveBytes += n
	sg.liveRecs++
	if n > s.maxRec[algo] {
		s.maxRec[algo] = n
	}
}

// markDead moves one record at off from live to dead accounting. The
// record length is re-read from the frame header; segments are only
// ever appended to, so the frame at a live offset is always intact.
func (s *Store) markDead(sg *segment, off int64) {
	var hdr [2]byte
	n := int64(recOverhead)
	if _, err := sg.f.ReadAt(hdr[:], off); err == nil {
		n += int64(binary.LittleEndian.Uint16(hdr[:]))
	}
	s.markDeadN(sg, n)
}

// markDeadN is markDead with the record length already in hand (the
// restore path just read the frame, so no extra pread is needed).
func (s *Store) markDeadN(sg *segment, n int64) {
	sg.liveBytes -= n
	sg.deadBytes += n
	sg.liveRecs--
	sg.deadRecs++
	s.maybeKickCompactLocked(sg)
}

// rotateLocked seals the active segment and starts a new one. Segment IDs
// are bounded by maxSegments; past it, rotation fails rather than wrap
// into an ID the index would confuse with a live segment.
func (s *Store) rotateLocked() error {
	id := s.nextSeg
	if id >= maxSegments {
		return fmt.Errorf("coldstore: segment ID %d is beyond the %d-segment bound", id, maxSegments)
	}
	f, err := s.fs.Create(s.segPath(id))
	if err != nil {
		return err
	}
	sg := &segment{id: id, f: f}
	if err := s.writeHeader(sg); err != nil {
		f.Close()
		s.fs.Remove(s.segPath(id))
		return err
	}
	s.nextSeg++
	s.segs[id] = sg
	sealed := s.active
	s.active = sg
	if sealed != nil {
		s.maybeKickCompactLocked(sealed)
	}
	return nil
}

// appendRecord serializes one record into buf.
func appendRecord(buf []byte, r Record) []byte {
	start := len(buf)
	var hdr [recHeaderLen]byte
	binary.LittleEndian.PutUint16(hdr[0:2], uint16(len(r.State)))
	hdr[2] = r.Algo
	binary.LittleEndian.PutUint64(hdr[3:11], r.LinkID)
	buf = append(buf, hdr[:]...)
	buf = append(buf, r.State...)
	crc := bitutil.CRC32(buf[start:])
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc)
	return append(buf, tail[:]...)
}

// PutBatch group-commits a batch of encoded states: one serialization
// pass, one write syscall, then the index is updated. A link already in
// the tier is superseded (its old record becomes dead). Records' State
// slices are not retained.
func (s *Store) PutBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("coldstore: store is closed")
	}
	if err := s.putLocked(recs); err != nil {
		return err
	}
	s.spills += uint64(len(recs))
	return nil
}

func (s *Store) putLocked(recs []Record) error {
	for _, r := range recs {
		if len(r.State) > maxStateLen {
			return fmt.Errorf("coldstore: link %d state is %d bytes, beyond the %d-byte record bound", r.LinkID, len(r.State), maxStateLen)
		}
	}
	if s.active.size >= s.segmentBytes {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	buf := s.batchBuf[:0]
	for _, r := range recs {
		buf = appendRecord(buf, r)
	}
	s.batchBuf = buf[:0]
	sg := s.active
	if _, err := sg.f.WriteAt(buf, sg.size); err != nil {
		// A partial append is exactly the torn-tail shape recovery
		// handles; trim it now so the in-process store stays coherent.
		sg.f.Truncate(sg.size)
		return err
	}
	if s.cfg.Sync {
		if err := sg.f.Sync(); err != nil {
			return err
		}
	}
	off := sg.size
	sg.size += int64(len(buf))
	for _, r := range recs {
		n := int64(recOverhead + len(r.State))
		s.indexPut(r.LinkID, r.Algo, sg, off, n)
		off += n
	}
	return nil
}

// readRecord preads and validates the record for id: one read sized to
// the widest record committed for the indexed algorithm, then the width,
// algorithm, link ID and CRC checks. Returns the record's segment, algo
// and a view of the state inside s.readBuf (valid until the next call;
// caller holds s.mu).
func (s *Store) readRecord(id uint64) (*segment, uint8, []byte, bool, error) {
	ref, ok := s.index[id]
	if !ok {
		return nil, 0, nil, false, nil
	}
	algo, segID, off := unpack(ref)
	sg := s.segs[segID]
	if sg == nil {
		return nil, 0, nil, false, fmt.Errorf("coldstore: link %d indexed in missing segment %d", id, segID)
	}
	n := s.maxRec[algo]
	if rem := sg.size - off; n > rem {
		n = rem
	}
	if int64(cap(s.readBuf)) < n {
		s.readBuf = make([]byte, n)
	}
	buf := s.readBuf[:n]
	if _, err := sg.f.ReadAt(buf, off); err != nil {
		return nil, 0, nil, false, err
	}
	if len(buf) < recOverhead {
		return nil, 0, nil, false, fmt.Errorf("coldstore: link %d record truncated", id)
	}
	w := int(binary.LittleEndian.Uint16(buf[0:2]))
	if recOverhead+w > len(buf) {
		return nil, 0, nil, false, fmt.Errorf("coldstore: link %d record overruns its read", id)
	}
	rec := buf[:recOverhead+w]
	if rec[2] != algo {
		return nil, 0, nil, false, fmt.Errorf("coldstore: link %d indexed as algo %d, record holds algo %d", id, algo, rec[2])
	}
	if got := binary.LittleEndian.Uint64(rec[3:11]); got != id {
		return nil, 0, nil, false, fmt.Errorf("coldstore: index for link %d points at link %d", id, got)
	}
	if bitutil.CRC32(rec[:len(rec)-4]) != binary.LittleEndian.Uint32(rec[len(rec)-4:]) {
		return nil, 0, nil, false, fmt.Errorf("coldstore: link %d record failed its CRC", id)
	}
	return sg, algo, rec[recHeaderLen : recHeaderLen+w], true, nil
}

// Take restores one link: a single pread, CRC validation, and removal
// from the index (the caller owns the state again; the record becomes
// dead). The state is appended to dst. ok is false when the link is not
// in the tier.
func (s *Store) Take(id uint64, dst []byte) (algo uint8, state []byte, ok bool, err error) {
	t0 := time.Now()
	s.mu.Lock()
	sg, a, view, ok, err := s.readRecord(id)
	if err != nil || !ok {
		s.mu.Unlock()
		return 0, nil, false, err
	}
	dst = append(dst, view...)
	delete(s.index, id)
	s.perAlgo[a]--
	s.restores++
	s.markDeadN(sg, int64(recOverhead+len(view)))
	s.mu.Unlock()
	s.restoreLat.Observe(time.Since(t0))
	return a, dst, true, nil
}

// Peek reads a link's state without removing it (the link store's Peek
// surface). The state is appended to dst.
func (s *Store) Peek(id uint64, dst []byte) (algo uint8, state []byte, ok bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, a, view, ok, err := s.readRecord(id)
	if err != nil || !ok {
		return 0, nil, false, err
	}
	return a, append(dst, view...), true, nil
}

// Len returns the number of links in the tier.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// kickCompact nudges the background compactor (nonblocking).
func (s *Store) kickCompact() {
	select {
	case s.compactCh <- struct{}{}:
	default:
	}
}

// maybeKickCompactLocked kicks the compactor if sg is sealed and past the
// dead-ratio threshold. A segment only becomes compactable when its dead
// bytes grow (markDeadN) or when it is sealed (rotateLocked), so those two
// call it for the one segment that changed.
func (s *Store) maybeKickCompactLocked(sg *segment) {
	if sg != s.active && (sg.liveRecs == 0 || sg.deadRatio() >= s.compactRatio) {
		s.kickCompact()
	}
}

// compactLoop drains compaction kicks until Close.
func (s *Store) compactLoop() {
	defer s.done.Done()
	for {
		select {
		case <-s.stopCh:
			return
		case <-s.compactCh:
			for {
				progressed, err := s.CompactOnce()
				if err != nil || !progressed {
					break
				}
			}
		}
	}
}

// CompactOnce rewrites (or, when fully dead, deletes) the sealed
// segment with the worst dead ratio at or past the threshold. Returns
// whether a segment was reclaimed. Exported for tests and for callers
// that want compaction on their own schedule.
func (s *Store) CompactOnce() (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, nil
	}
	var victim *segment
	for _, sg := range s.segs {
		if sg == s.active {
			continue
		}
		if sg.liveRecs > 0 && sg.deadRatio() < s.compactRatio {
			continue
		}
		if victim == nil || sg.deadRatio() > victim.deadRatio() {
			victim = sg
		}
	}
	if victim == nil {
		return false, nil
	}
	if victim.liveRecs > 0 {
		// Re-append the live records through the ordinary put path. The
		// whole segment is read once; records whose index entry still
		// points into it are live, everything else is garbage to drop.
		data := make([]byte, victim.size-headerLen)
		if _, err := victim.f.ReadAt(data, headerLen); err != nil {
			return false, err
		}
		var live []Record
		var liveOffs []int64
		off := int64(headerLen)
		for rel := 0; rel < len(data); {
			rec := data[rel:]
			w := int(binary.LittleEndian.Uint16(rec[0:2]))
			n := recOverhead + w
			id := binary.LittleEndian.Uint64(rec[3:11])
			if ref, ok := s.index[id]; ok {
				if _, segID, recOff := unpack(ref); segID == victim.id && recOff == off {
					live = append(live, Record{LinkID: id, Algo: rec[2], State: rec[recHeaderLen : recHeaderLen+w]})
					liveOffs = append(liveOffs, off)
					// Drop the index entry so putLocked re-adding it does
					// not mark the victim's copy dead (the whole segment
					// is deleted below) or double-count the link's algo.
					delete(s.index, id)
					s.perAlgo[rec[2]]--
				}
			}
			rel += n
			off += int64(n)
		}
		if err := s.putLocked(live); err != nil {
			// putLocked made no index changes on error; re-point the live
			// records at the victim so no state is lost. The segment
			// survives until a later compaction retries.
			for i, r := range live {
				s.index[r.LinkID] = pack(r.Algo, victim.id, liveOffs[i])
				s.perAlgo[r.Algo]++
			}
			return false, err
		}
	}
	victim.f.Close()
	if err := s.fs.Remove(s.segPath(victim.id)); err != nil {
		return false, err
	}
	delete(s.segs, victim.id)
	s.compactions++
	return true, nil
}

// LatencySnapshot returns the merged restore-latency histogram.
func (s *Store) LatencySnapshot() stats.Histogram {
	return s.restoreLat.Snapshot()
}

// Stats is a point-in-time view of the tier.
type Stats struct {
	// Links is the number of links resident in the tier; Segments the
	// number of on-disk log files.
	Links    int `json:"links"`
	Segments int `json:"segments"`
	// LiveBytes/DeadBytes split the segment bytes by whether the index
	// still references them; DiskBytes is their sum plus headers.
	LiveBytes int64 `json:"live_bytes"`
	DeadBytes int64 `json:"dead_bytes"`
	DiskBytes int64 `json:"disk_bytes"`
	// Spills and Restores count links written to and taken back from
	// the tier (cumulative, this process).
	Spills   uint64 `json:"spilled_links_total"`
	Restores uint64 `json:"restored_links_total"`
	// Compactions counts segments reclaimed; TornTails counts truncated
	// partial tails found at recovery.
	Compactions uint64 `json:"compactions_total"`
	TornTails   uint64 `json:"torn_tails_total"`
	// RestoreLatency digests the disk-restore latency histogram;
	// RestoreHist is the full merged histogram behind it (for the
	// Prometheus renderer — omitted from JSON).
	RestoreLatency obs.LatencySummary `json:"restore_latency"`
	RestoreHist    stats.Histogram    `json:"-"`
	// AlgoLinks counts resident links per algorithm ID.
	AlgoLinks map[uint8]int `json:"algo_links,omitempty"`
}

// Stats snapshots the tier's counters.
func (s *Store) Stats() Stats {
	hist := s.restoreLat.Snapshot()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := Stats{
		Links:       len(s.index),
		Segments:    len(s.segs),
		Spills:      s.spills,
		Restores:    s.restores,
		Compactions: s.compactions,
		TornTails:   s.tornTails,
	}
	for _, sg := range s.segs {
		out.LiveBytes += sg.liveBytes
		out.DeadBytes += sg.deadBytes
		out.DiskBytes += sg.size
	}
	for a, n := range s.perAlgo {
		if n != 0 {
			if out.AlgoLinks == nil {
				out.AlgoLinks = make(map[uint8]int)
			}
			out.AlgoLinks[uint8(a)] = int(n)
		}
	}
	out.RestoreLatency = obs.Summarize(&hist)
	out.RestoreHist = hist
	return out
}

func (s *Store) closeFiles() {
	for _, sg := range s.segs {
		sg.f.Close()
	}
}

// Close stops the compactor and closes every segment file. The store is
// unusable afterwards; reopen with Open.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stopCh)
	s.done.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	for _, sg := range s.segs {
		if s.cfg.Sync {
			if e := sg.f.Sync(); e != nil && err == nil {
				err = e
			}
		}
		if e := sg.f.Close(); e != nil && err == nil {
			err = e
		}
	}
	return err
}
