package main

import (
	"sync/atomic"
	"time"

	"softrate/internal/faultfs"
)

// ioStats accumulates the cold tier's file I/O as seen through timingFS.
type ioStats struct {
	busy       atomic.Int64 // nanoseconds inside ReadAt/WriteAt/Sync
	readBytes  atomic.Int64
	writeBytes atomic.Int64
}

// ioSnap is a point-in-time copy of ioStats.
type ioSnap struct{ busy, read, write int64 }

func (s *ioStats) snap() ioSnap {
	return ioSnap{s.busy.Load(), s.readBytes.Load(), s.writeBytes.Load()}
}

// timingFS is the cold tier's filesystem with every positional read,
// write and sync timed and byte-counted; it passes everything through to
// the real filesystem unchanged.
type timingFS struct {
	faultfs.OS
	st *ioStats
}

func (t *timingFS) Open(path string) (faultfs.File, error) {
	f, err := t.OS.Open(path)
	if err != nil {
		return nil, err
	}
	return timedFile{f, t.st}, nil
}

func (t *timingFS) Create(path string) (faultfs.File, error) {
	f, err := t.OS.Create(path)
	if err != nil {
		return nil, err
	}
	return timedFile{f, t.st}, nil
}

type timedFile struct {
	faultfs.File
	st *ioStats
}

func (f timedFile) ReadAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := f.File.ReadAt(p, off)
	f.st.busy.Add(int64(time.Since(t0)))
	f.st.readBytes.Add(int64(n))
	return n, err
}

func (f timedFile) WriteAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := f.File.WriteAt(p, off)
	f.st.busy.Add(int64(time.Since(t0)))
	f.st.writeBytes.Add(int64(n))
	return n, err
}

func (f timedFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	f.st.busy.Add(int64(time.Since(t0)))
	return err
}
