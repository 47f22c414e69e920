package kvserve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"syscall"

	"lazyp/internal/checksum"
)

const (
	// pmemMagic identifies a kvserve backing file: the family, then two
	// digits that version the header layout and the image format under
	// it. 02: an LP journal of growing-window acks; a 01 journal's pad
	// records would replay as puts of key ^0, so 01 files are refused.
	pmemFamily = "LPKVPM"
	pmemMagic  = pmemFamily + "02"
	// headerSize is the byte offset of the memory image in the file;
	// the header occupies one page regardless of how little it uses.
	headerSize = 4096
	// batchKind is the checksum code of every LP batch. The header
	// records it, so an image written under another code is refused.
	batchKind = checksum.Modular
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
		uint64(cfg.MaxOps), uint64(cfg.BatchK), uint64(batchKind),
		uint64(cfg.Streams), uint64(cfg.Keys), cfg.Seed,
		uint64(imageSize),
	}
	for i, f := range fields {
		binary.LittleEndian.PutUint64(h[len(pmemMagic)+8*i:], f)
	}
	return h
}

// pmemFile is the durability domain and the owner of both of the
// server's images: a file holding the geometry header followed by the
// memory image, whose MAP_SHARED mapping (img) is the memsim.Memory's
// durable image, and an anonymous private mapping of the same size (heap),
// its architectural one. The file therefore *is* the Memory's NVMM: a line
// is durable exactly when Memory.Persist/PersistLine has stored it, the
// heap image is the cache a kill -9 loses, and the page cache keeps the
// stored bytes as it would pwrite()n ones (DESIGN §9 has the argument, and
// the boot sequence this type is the file half of). Both mappings are
// lazily zero, a restored image is loaded by reading only its written
// pages (load), and committed journal pages are handed back (release),
// so an image costs its live pages, not its geometry or its history.
// Both share this type's lifecycle — open and validate, map, load or
// commit the header, sync, close. Disjoint lines may be persisted
// concurrently without coordination: the write-back goroutine, a shard's
// flusher and its owner never share a line.
//
// Platform rule: kvserve needs a shared file mapping and an anonymous one
// (syscall.Mmap — linux, darwin, freebsd). There is no positional-write
// fallback and no Go-heap image; where a mapping cannot be made, open
// fails. Linux also preallocates the file's blocks and turns read-around
// off (pmemfile_linux.go); elsewhere the file stays sparse.
type pmemFile struct {
	f     *os.File
	fsync bool
	img   []byte // MAP_SHARED view of the file's image region
	heap  []byte // MAP_ANON|MAP_PRIVATE, same size
}

// openPmemFile opens or creates the backing file for an image of
// imageSize bytes and maps both images. A file that never completed a
// first boot — no longer than the image and its header page blank (an
// empty file reads so), since commit writes the header last; or the
// header and nothing else, which the header-first order of earlier
// versions could leave — is cut to nothing and sized afresh, and restored=false is returned: the caller
// formats, preloads and commits. Any other file must match the expected
// header and size exactly and restored=true is returned: the caller loads
// the image (load) and runs recovery.
func openPmemFile(path string, cfg Config, imageSize int) (_ *pmemFile, restored bool, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, false, err
	}
	pf := &pmemFile{f: f, fsync: cfg.Fsync}
	defer func() {
		if err != nil {
			pf.close()
		}
	}()
	st, err := f.Stat()
	if err != nil {
		return nil, false, err
	}
	got := make([]byte, headerSize) // a short file reads as zero-padded
	if _, err = f.ReadAt(got, 0); err != nil && err != io.EOF {
		return nil, false, err
	}
	want, size := headerBytes(cfg, imageSize), int64(headerSize+imageSize)
	switch {
	case st.Size() <= size && bytes.Equal(got, make([]byte, headerSize)), st.Size() == headerSize && bytes.Equal(got, want):
		if err = f.Truncate(0); err == nil {
			if err = f.Truncate(size); err == nil {
				err = preallocate(f, size)
			}
		}
	case string(got[:len(pmemFamily)]) != pmemFamily:
		err = fmt.Errorf("kvserve: %s is not a kvserve backing file", path)
	case string(got[:len(pmemMagic)]) != pmemMagic:
		err = fmt.Errorf("kvserve: %s has image format %q, this build reads only %q", path, got[:len(pmemMagic)], pmemMagic)
	case !bytes.Equal(got, want):
		err = fmt.Errorf("kvserve: %s geometry does not match the configuration", path)
	case st.Size() != size:
		err = fmt.Errorf("kvserve: %s is %d bytes, want %d", path, st.Size(), size)
	default:
		restored = true
	}
	if err != nil {
		return nil, false, err
	}
	// headerSize is one page, so the offset is always aligned.
	pf.img, err = syscall.Mmap(int(f.Fd()), headerSize, imageSize,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err == nil {
		pf.heap, err = syscall.Mmap(-1, 0, imageSize,
			syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	}
	if err != nil {
		return nil, false, fmt.Errorf("kvserve: %s: mapping the images: %w", path, err)
	}
	storeByLine(pf.img)
	return pf, restored, nil
}

// loadChunk is how much of the file load reads per pread.
const loadChunk = 256 << 10

// pageSize is the unit both images are loaded and released in.
var pageSize = os.Getpagesize()

// load makes the heap image what survived — the file's image, byte for
// byte, as Memory.Crash would copy it — and returns the bytes it copied.
// The heap mapping is fresh and all zero, so load preads the file in
// chunks and copies only the pages that hold a non-zero byte: a restart
// faults in neither the file mapping nor the journal nobody wrote.
func (p *pmemFile) load() (copied int, err error) {
	buf, zero := make([]byte, loadChunk), make([]byte, pageSize)
	for off := 0; off < len(p.heap); off += loadChunk {
		chunk := buf[:min(loadChunk, len(p.heap)-off)]
		if _, err = p.f.ReadAt(chunk, headerSize+int64(off)); err != nil {
			return copied, fmt.Errorf("kvserve: %s: loading the image: %w", p.f.Name(), err)
		}
		for i := 0; i < len(chunk); i += pageSize {
			pg := chunk[i:min(i+pageSize, len(chunk))]
			if !bytes.Equal(pg, zero[:len(pg)]) {
				copied += copy(p.heap[off+i:], pg)
			}
		}
	}
	return copied, nil
}

// commit ends a first boot. The header is what makes the file a kvserve
// image, so it is written last and over a storage-durable image: killed
// or powered off anywhere before it lands, the next open finds a blank
// header page and starts the boot over.
func (p *pmemFile) commit(header []byte) error {
	err := p.sync()
	if err == nil {
		if _, err = p.f.WriteAt(header, 0); err == nil {
			err = p.sync()
		}
	}
	return err
}

// sync makes every line persisted so far storage-durable: fsync flushes
// all dirty pages of the inode, including pages dirtied through the
// shared mapping.
func (p *pmemFile) sync() error { return p.f.Sync() }

// close unmaps what is mapped and closes the file. The Memory must have
// been detached from the images first (see Server.release).
func (p *pmemFile) close() error {
	err := p.f.Close()
	for _, m := range [][]byte{p.img, p.heap} {
		if m != nil {
			err = errors.Join(err, syscall.Munmap(m))
		}
	}
	p.img, p.heap = nil, nil
	return err
}
