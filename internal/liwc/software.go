package liwc

// SoftwareController is the pure-software baseline the paper compares
// against in Fig. 12 (SW-FPS): it selects the eccentricity from the
// *previous frame's measured* local and remote latencies instead of
// LIWC's hardware-level predictors, so it reacts at least one frame
// late and pays software control overhead on the critical path.
type SoftwareController struct {
	budget float64
	floor  float64
	e1     float64

	prevLocal, prevRemote float64
	havePrev              bool
}

// SoftwareControlOverheadSeconds is the per-frame CPU cost of the
// software selection path (kernel issue, memory round trips) that the
// hardware controller hides (Fig. 4-B).
const SoftwareControlOverheadSeconds = 0.0012

// NewSoftware creates the software baseline controller.
func NewSoftware(budgetSeconds, targetFloor, initialE1 float64) *SoftwareController {
	s := &SoftwareController{}
	s.Reset(budgetSeconds, targetFloor, initialE1)
	return s
}

// Reset re-initializes the controller in place, as NewSoftware returns
// it, forgetting the previous frame's measurements.
func (s *SoftwareController) Reset(budgetSeconds, targetFloor, initialE1 float64) {
	*s = SoftwareController{budget: budgetSeconds, floor: targetFloor, e1: initialE1}
}

// E1 returns the current eccentricity.
func (s *SoftwareController) E1() float64 { return s.e1 }

// Plan picks the next e1 from last frame's measurements only. The
// fixed step schedule stands in for the profiling-table approach the
// paper attributes to software implementations.
func (s *SoftwareController) Plan() float64 {
	if !s.havePrev {
		return s.e1
	}
	target := s.prevRemote
	if target < s.floor*s.budget {
		target = s.floor * s.budget
	}
	if target > s.budget {
		target = s.budget
	}
	errMs := (target - s.prevLocal) * 1000
	// Conservative fixed slope estimate: software cannot observe the
	// per-motion gradient, so it must step cautiously to avoid
	// oscillation.
	step := errMs / 1.0
	if step > 2 {
		step = 2
	}
	if step < -2 {
		step = -2
	}
	s.e1 += step
	if s.e1 < e1BucketLo {
		s.e1 = e1BucketLo
	}
	if s.e1 > e1BucketHi {
		s.e1 = e1BucketHi
	}
	return s.e1
}

// Observe records this frame's measured latencies for the next Plan.
func (s *SoftwareController) Observe(localSeconds, remoteSeconds float64) {
	s.prevLocal = localSeconds
	s.prevRemote = remoteSeconds
	s.havePrev = true
}
