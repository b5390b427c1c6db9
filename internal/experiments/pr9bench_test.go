package experiments

import "testing"

// TestRunPR9Small drives the pr9 gate's cluster run at a toy size, with
// the observability stack on and off: the concurrent drivers must
// complete tasks through the gateway, and the merged accounting of the
// nodes must balance.
func TestRunPR9Small(t *testing.T) {
	shape := pr7Shape{
		workers:           8,
		churners:          2,
		xmax:              2,
		totalBuffer:       32,
		steps:             8,
		completesPerOffer: 2,
		drivers:           4,
		departFrac:        0.5,
	}
	for _, instrumented := range []bool{true, false} {
		res, err := runPR9(7, 2, shape, instrumented)
		if err != nil {
			t.Fatalf("instrumented=%v: %v", instrumented, err)
		}
		if res.completed == 0 {
			t.Fatalf("instrumented=%v: no completions", instrumented)
		}
		if !res.conserved {
			t.Fatalf("instrumented=%v: conservation violated", instrumented)
		}
	}
}
