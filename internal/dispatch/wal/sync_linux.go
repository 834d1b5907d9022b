//go:build linux

package wal

import (
	"os"
	"syscall"
)

// datasync flushes file data without forcing a metadata journal commit.
// Appends land inside the preallocated region, so the inode size is already
// durable and fdatasync is sufficient — and materially cheaper than fsync:
// it skips the filesystem journal commit, which the log would otherwise
// queue behind the store's artifact fsyncs on the same disk.
func datasync(f *os.File) error {
	for {
		err := syscall.Fdatasync(int(f.Fd()))
		if err != syscall.EINTR {
			return err
		}
	}
}
