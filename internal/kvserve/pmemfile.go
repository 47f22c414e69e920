package kvserve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"syscall"
)

const (
	// pmemMagic identifies a kvserve backing file; the trailing digits
	// version the header layout.
	pmemMagic = "LPKVPM01"
	// headerSize is the byte offset of the memory image in the file;
	// the header occupies one page regardless of how little it uses.
	headerSize = 4096
)

// headerBytes renders the geometry header for a config and image size.
// Reopen compares the whole page byte-for-byte: any geometry drift —
// different mode, shard count, journal size, preload, or a different
// lpstore layout after a code change that resizes allocations — shows
// up as a refused open instead of a silently misread image.
func headerBytes(cfg Config, imageSize int) []byte {
	h := make([]byte, headerSize)
	copy(h, pmemMagic)
	fields := []uint64{
		uint64(cfg.Mode), uint64(cfg.Shards), uint64(cfg.Capacity),
		uint64(cfg.MaxOps), uint64(cfg.BatchK), uint64(cfg.Kind),
		uint64(cfg.Streams), uint64(cfg.Keys), cfg.Seed,
		uint64(imageSize),
	}
	for i, f := range fields {
		binary.LittleEndian.PutUint64(h[len(pmemMagic)+8*i:], f)
	}
	return h
}

// pmemFile is the durability domain: a file holding the geometry header
// followed by the memory image, whose MAP_SHARED mapping (img) the
// server attaches to its memsim.Memory as the durable image. The file
// therefore *is* the Memory's NVMM: a line is durable exactly when
// Memory.Persist/PersistLine has stored it, the heap image is the cache,
// and memsim's inspection helpers (DurableLoad64) read what survives
// kill -9. This type is only the file's lifecycle — header, open and
// validate, map, sync, close. Disjoint lines may be persisted
// concurrently without coordination: the write-back goroutine, a shard's
// flusher and its owner never share a line.
//
// Why a mapping is a faithful NVMM: a SIGKILL'd process loses its heap
// (the simulated cache) but not the page cache, so bytes stored into the
// shared mapping survive exactly as pwrite()n bytes would, while a
// persist costs a 64-byte copy instead of a syscall. A kill can land
// between the stores of one line; real NVM persists with 8-byte
// atomicity too, and LP's batch checksums are the recovery story for
// torn lines.
//
// Platform rule: kvserve needs a shared file mapping (syscall.Mmap —
// linux, darwin, freebsd). There is no positional-write fallback; where
// the mapping cannot be made, open fails.
type pmemFile struct {
	f     *os.File
	fsync bool
	img   []byte // MAP_SHARED view of the image region
}

// openPmemFile opens or creates the backing file for an image of
// imageSize bytes and maps the image region. A zero-size (new) file
// gets the header and a zero image, and restored=false is returned: the
// caller persists its initial contents. An existing file must match the
// expected header and size exactly and restored=true is returned: the
// caller loads the image (Memory.Crash) and runs recovery.
func openPmemFile(path string, cfg Config, imageSize int) (pf *pmemFile, restored bool, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, false, err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	st, err := f.Stat()
	if err != nil {
		return nil, false, err
	}
	want := headerBytes(cfg, imageSize)
	restored = st.Size() != 0
	if restored {
		got := make([]byte, headerSize)
		if _, err = io.ReadFull(io.NewSectionReader(f, 0, headerSize), got); err != nil {
			return nil, false, fmt.Errorf("kvserve: %s: short header: %w", path, err)
		}
		if string(got[:len(pmemMagic)]) != pmemMagic {
			return nil, false, fmt.Errorf("kvserve: %s is not a kvserve backing file", path)
		}
		if !bytes.Equal(got, want) {
			return nil, false, fmt.Errorf("kvserve: %s geometry does not match the configuration", path)
		}
		if st.Size() != int64(headerSize+imageSize) {
			return nil, false, fmt.Errorf("kvserve: %s is %d bytes, want %d", path, st.Size(), headerSize+imageSize)
		}
	} else {
		if _, err = f.WriteAt(want, 0); err != nil {
			return nil, false, err
		}
		if err = f.Truncate(int64(headerSize + imageSize)); err != nil {
			return nil, false, err
		}
	}
	// headerSize is one page, so the offset is always aligned.
	img, err := syscall.Mmap(int(f.Fd()), headerSize, imageSize,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, false, fmt.Errorf("kvserve: %s: mapping the image: %w", path, err)
	}
	return &pmemFile{f: f, fsync: cfg.Fsync, img: img}, restored, nil
}

// sync makes every line persisted so far storage-durable: fsync flushes
// all dirty pages of the inode, including pages dirtied through the
// shared mapping.
func (p *pmemFile) sync() error { return p.f.Sync() }

// close unmaps the image and closes the file. The Memory must have been
// detached from img first (see Server.closeFile).
func (p *pmemFile) close() error {
	err := syscall.Munmap(p.img)
	p.img = nil
	if cerr := p.f.Close(); err == nil {
		err = cerr
	}
	return err
}
