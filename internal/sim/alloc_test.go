//go:build !race

package sim

import "testing"

// TestEngineScheduleRunZeroAllocs pins the engine's own cost: once its
// queues have grown, scheduling an event and running it allocates
// nothing: in the same-instant lane, in the wheel, or in the overflow
// heap on the far side of the horizon.
func TestEngineScheduleRunZeroAllocs(t *testing.T) {
	e := NewEngine()
	var tick func()
	left := 0
	delays := [...]Time{0, 1, 2, wheelSlots - 1, wheelSlots, 3 * wheelSlots}
	tick = func() {
		if left--; left > 0 {
			e.After(delays[left%len(delays)], tick)
		}
	}
	burst := func() {
		left = 1024
		for i := 0; i < 64; i++ {
			e.After(Time(i), tick)
		}
		e.Run()
	}
	burst()
	if got := testing.AllocsPerRun(20, burst); got != 0 {
		t.Fatalf("%v allocations per 1087-event burst, want 0", got)
	}
}
