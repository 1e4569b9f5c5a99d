package kv

import (
	"bytes"
	"testing"

	"repro/internal/fabric"
	"repro/internal/failure"
	"repro/internal/sim"
	"repro/internal/workload"
)

func newStore(t testing.TB) (*fabric.Cluster, *Store) {
	t.Helper()
	clu := fabric.NewCluster()
	node := clu.AddNode(fabric.DefaultNodeConfig("kv"))
	return clu, New(node, 1024)
}

// get reads key's value through the host-side lookup.
func get(t testing.TB, s *Store, key uint64) ([]byte, bool) {
	t.Helper()
	va, vl, ok := s.Lookup(key)
	if !ok {
		return nil, false
	}
	v, err := s.node.Mem.Read(va, vl)
	if err != nil {
		t.Fatal(err)
	}
	return v, true
}

func TestSetGet(t *testing.T) {
	_, s := newStore(t)
	want := workload.Value(7, 64)
	if err := s.Set(7, want); err != nil {
		t.Fatal(err)
	}
	got, ok := get(t, s, 7)
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("get: ok=%v", ok)
	}
	if _, ok := get(t, s, 8); ok {
		t.Fatal("phantom key")
	}
	if s.Table.Len() != 1 {
		t.Fatalf("len %d, want 1", s.Table.Len())
	}
}

// A same-size overwrite rewrites the value where it is and leaves the
// key in its bucket; a larger one gets new space.
func TestOverwriteReusesArena(t *testing.T) {
	_, s := newStore(t)
	s.Set(1, workload.Value(1, 64))
	a1, _, _ := s.Lookup(1)
	fn := s.Table.LookupBucket(1)
	s.Set(1, workload.Value(2, 64))
	a2, _, _ := s.Lookup(1)
	if a1 != a2 || s.Table.LookupBucket(1) != fn {
		t.Fatalf("same-size overwrite moved the value %#x -> %#x", a1, a2)
	}
	if got, _ := get(t, s, 1); !bytes.Equal(got, workload.Value(2, 64)) {
		t.Fatal("overwrite content")
	}
	s.Set(1, workload.Value(3, 128))
	if a3, vl, _ := s.Lookup(1); a3 == a1 || vl != 128 {
		t.Fatalf("larger overwrite at %#x (len %d), want new space of 128 B", a3, vl)
	}
	if s.Table.Len() != 1 {
		t.Fatalf("len %d, want 1", s.Table.Len())
	}
}

// A process crash stops host-side gets until bootstrap and the rebuild
// are both done; the data survives the restart.
func TestCrashRecoveryTimeline(t *testing.T) {
	clu, s := newStore(t)
	s.Set(1, workload.Value(1, 8))
	s.Crash(failure.ProcessCrash, false).InjectAt(clu.Eng, 1*sim.Second)

	clu.Eng.RunUntil(1*sim.Second + 1)
	if _, ok := get(t, s, 1); ok {
		t.Fatal("get served while down")
	}
	// After bootstrap but before rebuild: still not serving.
	clu.Eng.RunUntil(1*sim.Second + failure.BootstrapTime + 1)
	if _, ok := get(t, s, 1); ok {
		t.Fatal("store serving before hash-table rebuild")
	}
	clu.Eng.RunUntil(1*sim.Second + failure.BootstrapTime + failure.RebuildTime + 1)
	if _, ok := get(t, s, 1); !ok {
		t.Fatal("store not recovered after bootstrap+rebuild, or data lost")
	}
}

func TestHullParentKeepsDeviceAlive(t *testing.T) {
	clu, s := newStore(t)
	s.Crash(failure.ProcessCrash, true).InjectAt(clu.Eng, 0)
	clu.Eng.RunUntil(1)
	if s.node.Dev.Frozen() {
		t.Fatal("hull parent should keep NIC resources alive")
	}

	clu2, s2 := newStore(t)
	s2.Crash(failure.ProcessCrash, false).InjectAt(clu2.Eng, 0)
	clu2.Eng.RunUntil(1)
	if !s2.node.Dev.Frozen() {
		t.Fatal("vanilla crash should freeze the device")
	}
	clu2.Eng.RunUntil(failure.BootstrapTime + failure.RebuildTime + sim.Second)
	if s2.node.Dev.Frozen() {
		t.Fatal("device should unfreeze after recovery")
	}
}

func TestOSPanicStopsCPUOnly(t *testing.T) {
	clu, s := newStore(t)
	s.Set(1, workload.Value(1, 8))
	s.Crash(failure.OSPanic, false).InjectAt(clu.Eng, 100)
	clu.Eng.RunUntil(200)
	if !s.node.CPU.Crashed() {
		t.Fatal("OS panic should stop the CPU")
	}
	if s.node.Dev.Frozen() {
		t.Fatal("OS panic must not freeze the NIC (it is decoupled from the host OS)")
	}
	if _, ok := get(t, s, 1); ok {
		t.Fatal("host-side get served after an OS panic")
	}
	if _, _, ok := s.Table.Lookup(1); !ok {
		t.Fatal("index lost: the NIC offload reads it without the host")
	}
}
