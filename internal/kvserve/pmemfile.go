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

// pmemFile is the durability domain and the owner of the server's one
// image: a file holding the geometry header followed by the memory image,
// whose MAP_SHARED mapping (img) is both the memsim.Memory's architectural
// image and its durable one. A store lands in the page cache as it
// executes, and the page cache is what survives the contract's crash, a
// process death (DESIGN §9 has the argument, and the boot sequence this
// type is the file half of): nothing volatile sits between a store and
// the file, so the file *is* the Memory's NVMM and no line is ever copied
// into it. The mapping is lazily zero and committed journal pages are
// handed back (release), so an image costs its live pages, not its
// geometry or its history; a restart maps the file as it is and copies
// nothing. The type's lifecycle: open and validate, map, commit the
// header, sync, close.
//
// Platform rule: kvserve needs a shared file mapping (syscall.Mmap —
// linux, darwin, freebsd). There is no positional-write fallback and no
// Go-heap image; where the mapping cannot be made, open fails. Linux also
// preallocates the file's blocks and turns read-around off
// (pmemfile_linux.go); elsewhere the file stays sparse.
type pmemFile struct {
	f     *os.File
	fsync bool
	img   []byte // MAP_SHARED view of the file's image region
}

// openPmemFile opens or creates the backing file for an image of
// imageSize bytes and maps its image. A file that never completed a
// first boot — no longer than the image and its header page blank (an
// empty file reads so), since commit writes the header last; or the
// header and nothing else, which the header-first order of earlier
// versions could leave — is cut to nothing and sized afresh, and restored=false is returned: the caller
// formats, preloads and commits. Any other file must match the expected
// header and size exactly and restored=true is returned: the caller runs
// recovery over the mapped image.
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
	if err != nil {
		return nil, false, fmt.Errorf("kvserve: %s: mapping the image: %w", path, err)
	}
	storeByLine(pf.img)
	return pf, restored, nil
}

// sweepChunk is how much of the file eachNonZero reads per pread.
const sweepChunk = 256 << 10

// pageSize is the unit the image is released in.
var pageSize = os.Getpagesize()

// eachNonZero preads the image's bytes [from, to) through the file, in
// chunks of sweepChunk, and calls f with the offset of every non-zero
// 8-byte word. A read maps nothing: a sweep over a journal nobody wrote
// leaves the process's footprint as it was.
func (p *pmemFile) eachNonZero(from, to int, f func(off int)) error {
	buf := make([]byte, sweepChunk)
	for off := from; off < to; off += len(buf) {
		chunk := buf[:min(len(buf), to-off)]
		if _, err := p.f.ReadAt(chunk, headerSize+int64(off)); err != nil {
			return fmt.Errorf("kvserve: %s: reading the image: %w", p.f.Name(), err)
		}
		for i := 0; i < len(chunk); i += 8 {
			if binary.LittleEndian.Uint64(chunk[i:]) != 0 {
				f(off + i)
			}
		}
	}
	return nil
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

// sync makes every store so far storage-durable: fsync flushes all dirty
// pages of the inode, including pages dirtied through the shared mapping.
func (p *pmemFile) sync() error { return p.f.Sync() }

// close unmaps the image, if mapped, and closes the file. The Memory
// must have been detached from it first (see Server.release).
func (p *pmemFile) close() error {
	err := p.f.Close()
	if p.img != nil {
		err = errors.Join(err, syscall.Munmap(p.img))
	}
	p.img = nil
	return err
}
