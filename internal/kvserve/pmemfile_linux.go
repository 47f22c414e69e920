package kvserve

import (
	"os"
	"syscall"
)

// preallocate reserves the file's blocks (unwritten extents: nothing is
// zeroed or read), so that a first store into a page of the mapping is a
// page-cache fault and never a block allocation: a full disk is an error
// from New, not a SIGBUS from a put's store into a hole. (ISSUE 21's
// prototype also read 3–5 % of put_sat on ext4 for it; with read-around
// off the pairs read level — EXPERIMENTS.md "Boot cost and footprint".)
// A filesystem without fallocate keeps the sparse file Truncate made.
func preallocate(f *os.File, size int64) error {
	err := syscall.Fallocate(int(f.Fd()), 0, 0, size)
	if err == nil || err == syscall.EOPNOTSUPP || err == syscall.ENOSYS {
		return nil
	}
	return &os.PathError{Op: "fallocate", Path: f.Name(), Err: err}
}

// storeByLine turns read-around off on the file mapping: nothing reads
// it front to back (a restored image is loaded with pread, see load), so
// a first store into a page would only pull the device's read-ahead
// window around it (8 MB on the CI host) into the page cache, and a
// journal nobody wrote would be resident all the same. Advice only:
// refused, nothing breaks.
func storeByLine(img []byte) { _ = syscall.Madvise(img, syscall.MADV_RANDOM) }

// release returns the pages of [lo, hi) of both images to the kernel. A
// released heap page reads as zero; a released page of the file mapping
// stays in the page cache, dirty until written back, and a later access
// faults it in again. The caller guarantees that nothing touches the
// range again in this incarnation. Reports whether both were released.
func (p *pmemFile) release(lo, hi int) bool {
	eh := syscall.Madvise(p.heap[lo:hi], syscall.MADV_DONTNEED)
	ei := syscall.Madvise(p.img[lo:hi], syscall.MADV_DONTNEED)
	return eh == nil && ei == nil
}
