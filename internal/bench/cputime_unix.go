//go:build unix

package bench

import (
	"syscall"
	"time"
)

// processCPU returns the CPU time, user and system, that the process has
// used so far, and whether the platform could tell.
func processCPU() (time.Duration, bool) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, false
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), true
}
