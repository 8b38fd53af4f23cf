//go:build unix

package image

import "syscall"

// sysMap returns n bytes of fresh anonymous private memory, outside the
// Go heap: the collector neither scans it nor counts it toward its goal.
// Pages are rounded up, so an entry takes at least one 4 KiB page.
func sysMap(n int) ([]byte, error) {
	return syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

// sysUnmap returns a sysMap mapping to the kernel.
func sysUnmap(b []byte) error { return syscall.Munmap(b[:cap(b)]) }
