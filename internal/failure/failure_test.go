package failure

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// Table 6's invariants: the NIC (and NVM) are an order of magnitude
// more reliable than the OS and DRAM — the premise that makes
// NIC-resident offloads a hull for host failures.
func TestTable6Invariants(t *testing.T) {
	byName := map[string]Component{}
	for _, c := range Table6 {
		byName[c.Name] = c
		if c.AFRPercent <= 0 || c.MTTFHours <= 0 {
			t.Fatalf("%s: non-positive rates", c.Name)
		}
	}
	for _, name := range []string{"OS", "DRAM", "NIC", "NVM"} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("component %s missing", name)
		}
	}
	nic, os := byName["NIC"], byName["OS"]
	if ratio := os.AFRPercent / nic.AFRPercent; ratio < 40 {
		t.Fatalf("OS fails only %.1fx more often than the NIC, paper says ~40x", ratio)
	}
	if nic.MTTFHours < 40*os.MTTFHours {
		t.Fatalf("NIC MTTF %.0fh not ~40x the OS's %.0fh", nic.MTTFHours, os.MTTFHours)
	}
	for _, frail := range []string{"OS", "DRAM"} {
		if byName[frail].Reliability != "99%" {
			t.Fatalf("%s reliability %q, want 99%%", frail, byName[frail].Reliability)
		}
	}
	for _, hardy := range []string{"NIC", "NVM"} {
		if byName[hardy].Reliability != "99.99%" {
			t.Fatalf("%s reliability %q, want 99.99%%", hardy, byName[hardy].Reliability)
		}
	}
	// The OS AFR/MTTF pair is internally consistent (AFR = year/MTTF).
	if afr := 100 * 8766 / os.MTTFHours; afr < os.AFRPercent*0.95 || afr > os.AFRPercent*1.05 {
		t.Fatalf("OS AFR %.1f%% inconsistent with MTTF %.0fh (implies %.1f%%)",
			os.AFRPercent, os.MTTFHours, afr)
	}
}

// nodeState is a crashed node seen from outside: whether its CPU is
// down, its NIC frozen, and host service up as OnDown/OnUp leave it.
type nodeState struct{ cpuDown, frozen, up bool }

const crashAt = 2 * sim.Second

// crash injects a crash of kind at crashAt into a fresh node and
// returns the node's state 1 ms after the crash, after bootstrap and
// after the rebuild, and when OnDown and OnUp fired (0: never).
func crash(kind Kind, hull bool) (states [3]nodeState, downAt, upAt sim.Time) {
	clu := fabric.NewCluster()
	node := clu.AddNode(fabric.DefaultNodeConfig("srv"))
	up := true
	NodeCrash{
		Node:       node,
		Kind:       kind,
		HullParent: hull,
		OnDown:     func() { up, downAt = false, clu.Eng.Now() },
		OnUp:       func() { up, upAt = true, clu.Eng.Now() },
	}.InjectAt(clu.Eng, crashAt)
	for i, when := range []sim.Time{crashAt + sim.Millisecond, crashAt + BootstrapTime + sim.Millisecond,
		crashAt + BootstrapTime + RebuildTime + sim.Millisecond} {
		clu.Eng.RunUntil(when)
		states[i] = nodeState{node.CPU.Crashed(), node.Dev.Frozen(), up}
	}
	return states, downAt, upAt
}

func checkStates(t *testing.T, kind Kind, hull bool, want [3]nodeState) {
	t.Helper()
	got, _, _ := crash(kind, hull)
	for i, phase := range []string{"after the crash", "after bootstrap", "after the rebuild"} {
		if got[i] != want[i] {
			t.Errorf("%v hull=%v %s: %+v, want %+v", kind, hull, phase, got[i], want[i])
		}
	}
}

// A process crash follows the Fig 16 lifecycle: down at the crash,
// the CPU back after bootstrap, service and the NIC (which the OS froze
// with the process's RDMA resources) back after the rebuild.
func TestInjectAtProcessCrash(t *testing.T) {
	checkStates(t, ProcessCrash, false,
		[3]nodeState{{true, true, false}, {false, true, false}, {false, false, true}})
}

// A hull parent keeps the NIC serving through the process crash; host
// service still waits for the rebuild.
func TestInjectAtProcessCrashHullParent(t *testing.T) {
	checkStates(t, ProcessCrash, true,
		[3]nodeState{{true, false, false}, {false, false, false}, {false, false, true}})
}

// An OS panic: the host is gone for good, the NIC is not, with or
// without a hull parent.
func TestInjectAtOSPanic(t *testing.T) {
	panicked := [3]nodeState{{true, false, false}, {true, false, false}, {true, false, false}}
	checkStates(t, OSPanic, false, panicked)
	checkStates(t, OSPanic, true, panicked)
}

// OnDown fires at the crash and OnUp exactly at bootstrap + rebuild,
// or never after an OS panic, for each kind with and without a hull
// parent.
func TestNodeCrashLifecycle(t *testing.T) {
	for _, kind := range []Kind{ProcessCrash, OSPanic} {
		for _, hull := range []bool{false, true} {
			_, downAt, upAt := crash(kind, hull)
			if downAt != crashAt {
				t.Errorf("%v hull=%v: OnDown at %v, want %v", kind, hull, downAt, crashAt)
			}
			want := crashAt + BootstrapTime + RebuildTime
			if kind == OSPanic {
				want = 0
			}
			if upAt != want {
				t.Errorf("%v hull=%v: OnUp at %v, want %v", kind, hull, upAt, want)
			}
		}
	}
}

// String names both kinds (they label experiment rows).
func TestKindString(t *testing.T) {
	if ProcessCrash.String() != "process-crash" || OSPanic.String() != "os-panic" {
		t.Fatalf("kind names: %q, %q", ProcessCrash, OSPanic)
	}
}
