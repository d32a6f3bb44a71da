package core

import "unsafe"

// EstimatorBytes returns the in-memory size of one estimator state: 40
// bytes. The paper's C++ implementation used 36 (Section 4.3). The
// three flags already share the word of r2's position (Estimator); the
// 4 bytes over are the two stream positions, which are 64-bit values
// here (checkpoints allow streams of up to 2^60 edges), where the paper
// packs them smaller. A counter adds 44 bytes per estimator for the
// bulk path's endpoint index (scratch.go).
func EstimatorBytes() uint64 {
	return uint64(unsafe.Sizeof(Estimator{}))
}
