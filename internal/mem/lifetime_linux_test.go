package mem

import (
	"os"
	"regexp"
	"runtime"
	"strconv"
	"testing"
	"time"
)

var vmSizeLine = regexp.MustCompile(`VmSize:\s+(\d+) kB`)

// vmSize is the process's mapped address space in bytes.
func vmSize(t *testing.T) uint64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Fatal(err)
	}
	f := vmSizeLine.FindSubmatch(status)
	if f == nil {
		t.Skip("no VmSize in /proc/self/status")
	}
	kb, _ := strconv.ParseUint(string(f[1]), 10, 64)
	return kb << 10
}

// Node memory must stay off the Go heap while it is live and go back to
// the OS once it is dropped: build, touch and drop 32 GiB of nodes — far
// more than would fit if either half failed quietly.
func TestDroppedMemoriesAreUnmapped(t *testing.T) {
	const nodeSize = 1 << 27
	const batches, perBatch = 8, 32

	var ms runtime.MemStats
	batch := func() {
		nodes := make([]*Memory, perBatch)
		for i := range nodes {
			m := New(nodeSize)
			for _, addr := range []uint64{8, nodeSize / 2, nodeSize - 8} {
				if err := m.PutU64(addr, uint64(i)+1); err != nil {
					t.Fatal(err)
				}
			}
			nodes[i] = m
		}
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > nodeSize/2 {
			t.Fatalf("HeapAlloc is %d MiB with %d nodes live: node memory is on the Go heap", ms.HeapAlloc>>20, perBatch)
		}
		for i, m := range nodes {
			if v, err := m.U64(nodeSize - 8); err != nil || v != uint64(i)+1 {
				t.Fatalf("node %d: last word %d, %v", i, v, err)
			}
		}
	}

	before := vmSize(t)
	for b := 0; b < batches; b++ {
		batch()
		runtime.GC()
	}
	// Cleanups run on their own goroutine after the cycle that finds the
	// Memory dead; give them a moment, then demand all but a couple of
	// the 256 mappings back.
	const slack = 2 * nodeSize
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		after := vmSize(t)
		if after <= before+slack {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("address space grew %d MiB over %d dropped nodes and did not settle", (after-before)>>20, batches*perBatch)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
