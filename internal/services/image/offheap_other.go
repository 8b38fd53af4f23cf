//go:build !unix

package image

// sysMap falls back to the Go heap where there is no anonymous mmap.
func sysMap(n int) ([]byte, error) { return make([]byte, n), nil }

// sysUnmap leaves a heap entry to the collector.
func sysUnmap([]byte) error { return nil }
