//go:build !unix

package bench

import "time"

// processCPU has no reading where getrusage is missing; the benchmarks
// then report wall time only.
func processCPU() (time.Duration, bool) { return 0, false }
