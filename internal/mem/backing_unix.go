//go:build unix

package mem

import (
	"math"
	"syscall"
)

// mapAnon returns size zero bytes in an anonymous private mapping: the
// kernel backs a page only when it is first touched, so untouched node
// memory costs address space and nothing else.
func mapAnon(size uint64) ([]byte, error) {
	if size > math.MaxInt {
		return nil, syscall.EINVAL
	}
	return syscall.Mmap(-1, 0, int(size), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

// unmapAnon returns a mapAnon mapping to the OS. It runs as a cleanup,
// where there is nobody to report to, and unmapping a live mapping that
// Mmap returned does not fail.
func unmapAnon(buf []byte) { _ = syscall.Munmap(buf) }
